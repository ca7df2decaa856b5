//! Property tests for `taskrt`'s persistent step graph: random DAGs run for
//! several re-armed rounds on 1, 2 and 8 workers (8 is more than this
//! host has cores, so idle workers go through the yield/park path).
//!
//! Every round, every node runs exactly once, strictly after its
//! dependencies; no node of the next round starts before the epilogue of
//! this one has returned; futures spawned on the same runtime while the
//! graph runs still complete; and a panicking body ends the run with the
//! panic on the caller instead of hanging it.

#[path = "../crates/taskrt/tests/dag_gen/mod.rs"]
mod dag_gen;

use lulesh::taskrt::{GraphBuilder, NodeId, Runtime};
use obs::SpanKind;
use proptest::prelude::*;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const ROUNDS: usize = 6;

/// What the bodies and the epilogue of one run share.
struct Ledger {
    clock: AtomicUsize,
    /// Per node: stamp of its latest execution, and how often it ran.
    stamps: Vec<AtomicUsize>,
    runs: Vec<AtomicUsize>,
    /// The round the epilogue has opened (bodies must see exactly this).
    round: AtomicUsize,
    in_epilogue: AtomicBool,
}

/// Run `deps` (node `i` depends on `deps[i] ⊂ 0..i`) for [`ROUNDS`] rounds
/// on `rt`. Every fifth node is a sync node; a final sync node joins
/// whatever has no successor, giving the graph its single sink. All the
/// properties are asserted inside the bodies and the epilogue, so a
/// violation surfaces as a panic resumed by `run_graph`.
fn run_rounds(rt: &Runtime, deps: &[Vec<usize>]) {
    let n = deps.len();
    let is_sync = |i: usize| i % 5 == 4;
    let ledger = Arc::new(Ledger {
        clock: AtomicUsize::new(0),
        stamps: (0..n).map(|_| AtomicUsize::new(0)).collect(),
        runs: (0..n).map(|_| AtomicUsize::new(0)).collect(),
        round: AtomicUsize::new(0),
        in_epilogue: AtomicBool::new(false),
    });

    let mut b = GraphBuilder::new();
    let mut ids: Vec<NodeId> = Vec::with_capacity(n);
    let mut has_successor = vec![false; n];
    for (i, ds) in deps.iter().enumerate() {
        let dep_ids: Vec<NodeId> = ds.iter().map(|&d| ids[d]).collect();
        for &d in ds {
            has_successor[d] = true;
        }
        ids.push(if is_sync(i) {
            b.sync("sync", &dep_ids)
        } else {
            let l = Arc::clone(&ledger);
            b.task("node", SpanKind::Task, &dep_ids, move || {
                assert!(
                    !l.in_epilogue.load(Ordering::SeqCst),
                    "node {i} started while the epilogue was running"
                );
                let round = l.round.load(Ordering::SeqCst);
                let ran = l.runs[i].fetch_add(1, Ordering::SeqCst);
                assert_eq!(ran, round, "node {i} ran out of its round");
                l.stamps[i].store(l.clock.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst);
            })
        });
    }
    let open: Vec<NodeId> = (0..n)
        .filter(|&i| !has_successor[i])
        .map(|i| ids[i])
        .collect();
    b.sync("sink", &open);
    let mut graph = b.build(rt);

    // The nearest *task* ancestors of each node (looking through syncs).
    let mut task_deps: Vec<Vec<usize>> = Vec::with_capacity(n);
    for ds in deps {
        let mut out = Vec::new();
        for &d in ds {
            if is_sync(d) {
                out.extend_from_slice(&task_deps[d]);
            } else {
                out.push(d);
            }
        }
        task_deps.push(out);
    }

    // Futures on the same pool, from another thread, while the graph runs.
    let side_sum = std::thread::scope(|s| {
        let side = s.spawn(|| {
            (0..40u64)
                .map(|i| rt.spawn(move || i).then(rt, |x| x * 2).get())
                .sum::<u64>()
        });
        let mut epilogues = 0;
        let mut round_floor = 0;
        rt.run_graph(&mut graph, || {
            ledger.in_epilogue.store(true, Ordering::SeqCst);
            let round = ledger.round.load(Ordering::SeqCst);
            let stamp = |i: usize| ledger.stamps[i].load(Ordering::SeqCst);
            for i in (0..n).filter(|&i| !is_sync(i)) {
                assert_eq!(ledger.runs[i].load(Ordering::SeqCst), round + 1, "node {i}");
                assert!(stamp(i) >= round_floor, "node {i} kept a stale stamp");
                for &d in &task_deps[i] {
                    assert!(
                        stamp(d) < stamp(i),
                        "node {i} ran before its dependency {d}"
                    );
                }
            }
            round_floor = ledger.clock.load(Ordering::SeqCst);
            // Give a node that (wrongly) started early a chance to be seen.
            std::thread::yield_now();
            epilogues += 1;
            ledger.round.store(round + 1, Ordering::SeqCst);
            ledger.in_epilogue.store(false, Ordering::SeqCst);
            if epilogues < ROUNDS {
                ControlFlow::Continue(())
            } else {
                ControlFlow::Break(())
            }
        });
        assert_eq!(epilogues, ROUNDS);
        side.join().expect("side thread")
    });
    assert_eq!(side_sum, 2 * (0..40u64).sum::<u64>());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn random_dags_rerun_in_dependency_order(
        n in 1usize..60,
        edges in proptest::collection::vec((0usize..60, 0usize..60), 0..120),
    ) {
        let deps = dag_gen::deps_from_edges(n, &edges);
        for threads in [1, 2, 8] {
            run_rounds(&Runtime::new(threads), &deps);
        }
    }
}

#[test]
fn wide_fanout_reruns_on_every_worker_count() {
    // Star: one root, 64 children, joined by the sink.
    let mut deps: Vec<Vec<usize>> = vec![Vec::new()];
    deps.extend((0..64).map(|_| vec![0]));
    for threads in [1, 2, 8] {
        run_rounds(&Runtime::new(threads), &deps);
    }
}

#[test]
fn panicking_body_ends_the_run_on_the_caller() {
    // Run on a helper thread so a hang shows as a timeout, not a stuck
    // test binary.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let rt = Runtime::new(2);
        let rounds = Arc::new(AtomicUsize::new(0));
        let mut b = GraphBuilder::new();
        let root = b.task("root", SpanKind::Task, &[], || ());
        let mid: Vec<NodeId> = (0..8)
            .map(|i| {
                let rounds = Arc::clone(&rounds);
                b.task("mid", SpanKind::Task, &[root], move || {
                    if i == 3 && rounds.load(Ordering::SeqCst) == 2 {
                        panic!("kernel exploded in round 2");
                    }
                })
            })
            .collect();
        b.sync("sink", &mid);
        let mut graph = b.build(&rt);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.run_graph(&mut graph, || {
                rounds.fetch_add(1, Ordering::SeqCst);
                ControlFlow::Continue(())
            })
        }));
        let message = result
            .expect_err("the body's panic must reach the caller")
            .downcast_ref::<&str>()
            .map(|s| s.to_string());
        // The failed round's epilogue is skipped, and the pool survives.
        let alive = rt.spawn(|| 7).get();
        tx.send((message, rounds.load(Ordering::SeqCst), alive))
            .ok();
    });
    let (message, rounds, alive) = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("run_graph hung after a body panicked");
    assert_eq!(message.as_deref(), Some("kernel exploded in round 2"));
    assert_eq!(rounds, 2);
    assert_eq!(alive, 7);
}
