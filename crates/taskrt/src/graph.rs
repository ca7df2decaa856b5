//! A persistent, dependency-counted task graph: built once, run round
//! after round by the worker pool without touching the allocator.
//!
//! Futures ([`crate::Future`]) are the right tool for a graph that is
//! different every time. A time-stepping code runs the *same* graph every
//! step, and at microsecond task grain re-creating a boxed closure, a
//! promise pair and a continuation hook per task per step costs more than
//! the tasks. A [`StepGraph`] records the nodes and edges once
//! ([`GraphBuilder`]); each node then holds an atomic count of unfinished
//! dependencies and a fixed successor list. Finishing a node decrements its
//! successors, and whoever brings a count to zero re-arms it and queues the
//! successor on its own deque — the same deques, stealing and parking as
//! [`crate::Runtime::spawn`], whose tasks keep running beside the graph.
//!
//! [`Runtime::run_graph`] runs the graph until told to stop: when the sink
//! node of a round completes, the *epilogue* closure runs on the worker
//! that completed it and either starts the next round (the roots are
//! queued again) or ends the run. The calling thread sleeps for the whole
//! run.
//!
//! Two kinds of node: a *task* carries a body, timed once into the busy
//! clock, its phase counter and (traced) a span; a *sync* node carries
//! none — it is the graph's `when_all`, and (traced) records a
//! [`SpanKind::Barrier`] span from its first dependency finishing to its
//! last.

use crate::scheduler::{Runtime, Task, WorkerRef};
use obs::SpanKind;
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::ops::{ControlFlow, Range};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// A node of the graph under construction; only usable as a dependency of
/// nodes added to the same [`GraphBuilder`] later.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeId(u32);

type Body = Box<dyn Fn() + Send + Sync>;

struct Node {
    /// `None` ⇒ sync node.
    body: Option<Body>,
    label: &'static str,
    kind: SpanKind,
    /// Phase-counter slot of `label` (task nodes).
    slot: usize,
    deps: u32,
    /// Dependencies still unfinished this round.
    pending: AtomicU32,
    /// Sync nodes, traced runs: when the first dependency finished this
    /// round (`u64::MAX` ⇒ none yet).
    first_done: AtomicU64,
    /// This node's slice of `StepGraph::succ`.
    succ: Range<usize>,
}

/// Records nodes and their dependencies; [`build`](Self::build) freezes
/// them into a [`StepGraph`]. A node can only depend on nodes added before
/// it, so the result is acyclic by construction.
#[derive(Default)]
pub struct GraphBuilder {
    nodes: Vec<(Option<Body>, &'static str, SpanKind, Vec<u32>)>,
}

impl GraphBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a task: `body` runs once per round, after every node in `deps`.
    /// `label` names its phase counter and span, `kind` its span kind.
    pub fn task(
        &mut self,
        label: &'static str,
        kind: SpanKind,
        deps: &[NodeId],
        body: impl Fn() + Send + Sync + 'static,
    ) -> NodeId {
        self.push(Some(Box::new(body)), label, kind, deps)
    }

    /// Add a sync node: completes once every node in `deps` has (at once
    /// when there are none). Counts as one synchronization point.
    pub fn sync(&mut self, label: &'static str, deps: &[NodeId]) -> NodeId {
        self.push(None, label, SpanKind::Barrier, deps)
    }

    fn push(
        &mut self,
        body: Option<Body>,
        label: &'static str,
        kind: SpanKind,
        deps: &[NodeId],
    ) -> NodeId {
        let id = u32::try_from(self.nodes.len()).expect("graph larger than u32::MAX nodes");
        assert!(
            deps.iter().all(|d| d.0 < id),
            "dependency from another builder"
        );
        let mut deps: Vec<u32> = deps.iter().map(|d| d.0).collect();
        deps.sort_unstable();
        deps.dedup();
        self.nodes.push((body, label, kind, deps));
        NodeId(id)
    }

    /// Freeze the graph for `rt`'s workers (phase labels resolve to `rt`'s
    /// counter slots). Panics unless exactly one node has no successor:
    /// that node is the sink whose completion ends a round, and a unique
    /// sink is what guarantees every node has finished by then.
    pub fn build(self, rt: &Runtime) -> StepGraph {
        let n = self.nodes.len();
        let mut out_degree = vec![0usize; n];
        for (_, _, _, deps) in &self.nodes {
            for &d in deps {
                out_degree[d as usize] += 1;
            }
        }
        let sinks: Vec<usize> = (0..n).filter(|&i| out_degree[i] == 0).collect();
        assert_eq!(sinks.len(), 1, "a step graph needs exactly one sink");

        // Successor lists in one flat array, each node's slice contiguous.
        let mut start = vec![0usize; n + 1];
        for i in 0..n {
            start[i + 1] = start[i] + out_degree[i];
        }
        let mut fill = start.clone();
        let mut succ = vec![0u32; start[n]];
        for (i, (_, _, _, deps)) in self.nodes.iter().enumerate() {
            for &d in deps {
                succ[fill[d as usize]] = i as u32;
                fill[d as usize] += 1;
            }
        }

        let mut roots = Vec::new();
        let nodes: Vec<Node> = self
            .nodes
            .into_iter()
            .enumerate()
            .map(|(i, (body, label, kind, deps))| {
                if deps.is_empty() {
                    roots.push(i as u32);
                }
                let deps = deps.len() as u32;
                Node {
                    slot: body.as_ref().map_or(0, |_| rt.phase_slot(label)),
                    body,
                    label,
                    kind,
                    deps,
                    pending: AtomicU32::new(deps),
                    first_done: AtomicU64::new(u64::MAX),
                    succ: start[i]..start[i + 1],
                }
            })
            .collect();
        StepGraph {
            tasks: nodes.iter().filter(|n| n.body.is_some()).count(),
            nodes,
            succ,
            roots,
            sink: sinks[0] as u32,
            runtime: rt.id(),
        }
    }
}

/// A frozen graph, ready for [`Runtime::run_graph`].
pub struct StepGraph {
    nodes: Vec<Node>,
    succ: Vec<u32>,
    roots: Vec<u32>,
    sink: u32,
    tasks: usize,
    /// Identity of the runtime whose phase slots the nodes hold.
    runtime: usize,
}

impl StepGraph {
    /// Nodes that carry a body.
    pub fn tasks(&self) -> usize {
        self.tasks
    }

    /// Sync nodes (synchronization points per round).
    pub fn syncs(&self) -> usize {
        self.nodes.len() - self.tasks
    }
}

/// One `run_graph` call: lives on the caller's stack, reached from the
/// workers through [`NodeRef`].
struct Run<'a> {
    graph: &'a StepGraph,
    epilogue: Mutex<&'a mut (dyn FnMut() -> ControlFlow<()> + Send + 'a)>,
    /// Set by the first body (or epilogue) that panics; later bodies are
    /// skipped and the run ends at the next sink.
    poisoned: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    done: Arc<Done>,
}

#[derive(Default)]
struct Done {
    flag: Mutex<bool>,
    cv: Condvar,
}

/// The queue item of a graph node: which run, which node.
pub(crate) struct NodeRef {
    run: *const Run<'static>,
    id: u32,
}

// SAFETY: a `NodeRef` is only dereferenced by a worker while its run is
// alive (see `Runtime::run_graph`), and `Run` is `Sync`: the graph's
// bodies are `Send + Sync`, the epilogue is `Send` behind a mutex, the
// rest is atomics and mutexes.
unsafe impl Send for NodeRef {}

impl Runtime {
    /// Run `graph` round after round on the workers, blocking the calling
    /// (non-worker) thread until the run ends.
    ///
    /// A round executes every node once, each after its dependencies. When
    /// the sink completes, `epilogue` runs on the worker that completed it:
    /// `Continue` queues the roots again, `Break` ends the run. No node of
    /// the next round starts before the epilogue returns. A steady-state
    /// round allocates nothing.
    ///
    /// If a body or the epilogue panics, the remaining bodies of that round
    /// are skipped, the run ends, and the panic resumes on the caller.
    pub fn run_graph(
        &self,
        graph: &mut StepGraph,
        mut epilogue: impl FnMut() -> ControlFlow<()> + Send,
    ) {
        assert_eq!(
            graph.runtime,
            self.id(),
            "graph was built for another runtime"
        );
        debug_assert!(
            !crate::scheduler::on_worker_thread(),
            "run_graph blocks; call it from a control thread"
        );
        let graph: &StepGraph = graph;
        let run = Run {
            graph,
            epilogue: Mutex::new(&mut epilogue),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
            done: Arc::default(),
        };
        let done = Arc::clone(&run.done);
        for &id in &graph.roots {
            self.submit(run.node_ref(id));
        }
        let mut flag = done.flag.lock();
        while !*flag {
            done.cv.wait(&mut flag);
        }
        drop(flag);
        let payload = run.panic.lock().take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

impl Run<'_> {
    fn poison(&self, payload: Box<dyn Any + Send>) {
        let mut first = self.panic.lock();
        if first.is_none() {
            *first = Some(payload);
        }
        self.poisoned.store(true, Ordering::Relaxed);
    }

    /// The queue item of node `id`. The pointer cast only erases the
    /// lifetime: the workers' accesses through it all happen before `done`
    /// is signalled (see `finish`), and `run_graph` keeps the run alive
    /// until then.
    fn node_ref(&self, id: u32) -> Task {
        let run = (self as *const Run<'_>).cast::<Run<'static>>();
        Task::Node(NodeRef { run, id })
    }
}

/// Worker side of a queued node: run its body (or, for a sync node that
/// was queued rather than completed inline, record its span) and
/// propagate completion.
pub(crate) fn execute(node: NodeRef, w: &WorkerRef<'_>) {
    // SAFETY: a node is queued only by `run_graph` (before it waits) or by
    // `finish` on behalf of a round whose sink has not completed, and the
    // run ends only after a sink completes with nothing queued: every
    // queued `NodeRef` is consumed while `run_graph` is still waiting.
    let run: &Run<'_> = unsafe { &*node.run };
    let n = &run.graph.nodes[node.id as usize];
    match &n.body {
        // `poisoned` publishes nothing: skipping is an optimisation, the
        // payload travels under the `panic` mutex.
        Some(body) if !run.poisoned.load(Ordering::Relaxed) => {
            let timed = AssertUnwindSafe(|| w.timed(n.slot, n.label, n.kind, body));
            if let Err(payload) = catch_unwind(timed) {
                run.poison(payload);
            }
        }
        Some(_) => {}
        None => record_barrier(n, w),
    }
    finish(run, node.id, w);
}

/// Node `id` has completed: release its successors. A worker's last touch
/// of `run` is either its final successor decrement here or, for the sink,
/// the `done` signal — and every such decrement happens-before the sink
/// completes (the sink is downstream of every node), which is what lets
/// `run_graph` return as soon as `done` is set.
fn finish(run: &Run<'_>, mut id: u32, w: &WorkerRef<'_>) {
    let g = run.graph;
    while id != g.sink {
        let mut stamp = None;
        let mut inline_sync = None;
        let mut queued = 0usize;
        for &s in &g.succ[g.nodes[id as usize].succ.clone()] {
            let next = &g.nodes[s as usize];
            if next.body.is_none() {
                if let Some((tracer, _)) = w.trace() {
                    let now = *stamp.get_or_insert_with(|| tracer.now_ns());
                    next.first_done.fetch_min(now, Ordering::Relaxed);
                }
            }
            // AcqRel: releases this node's writes to, and acquires the
            // other dependencies' writes for, whoever runs `next`.
            if next.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Re-arm for the next round. Relaxed is enough: nothing
                // decrements `next` again before it has run, and it runs
                // only after the queue push (or inline completion) that
                // follows this store.
                next.pending.store(next.deps, Ordering::Relaxed);
                if next.body.is_none() && inline_sync.is_none() {
                    inline_sync = Some(s);
                } else {
                    w.push(run.node_ref(s));
                    queued += 1;
                }
            }
        }
        // This worker takes one ready node itself (a sync node right here,
        // otherwise the top of its deque); the rest are for others.
        match inline_sync {
            Some(s) => {
                w.wake(queued);
                record_barrier(&g.nodes[s as usize], w);
                id = s;
            }
            None => return w.wake(queued.saturating_sub(1)),
        }
    }

    let again = !run.poisoned.load(Ordering::Relaxed)
        && match catch_unwind(AssertUnwindSafe(|| (run.epilogue.lock())())) {
            Ok(flow) => flow.is_continue(),
            Err(payload) => {
                run.poison(payload);
                false
            }
        };
    if again {
        for &r in &g.roots {
            w.push(run.node_ref(r));
        }
        w.wake(g.roots.len() - 1);
    } else {
        let done = Arc::clone(&run.done);
        *done.flag.lock() = true;
        done.cv.notify_all();
    }
}

/// Traced runs: the barrier span of sync node `n`, first dependency done →
/// now (its last dependency just finished), on the completing worker's
/// lane.
fn record_barrier(n: &Node, w: &WorkerRef<'_>) {
    if let Some((tracer, lane)) = w.trace() {
        let now = tracer.now_ns();
        let first = n.first_done.swap(u64::MAX, Ordering::Relaxed).min(now);
        tracer.record_interval(lane, SpanKind::Barrier, n.label, first, now);
    }
}
