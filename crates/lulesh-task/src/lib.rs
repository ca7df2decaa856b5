//! # lulesh-task — the paper's many-task LULESH
//!
//! The contribution of Kalkhof & Koch (SC'24), rebuilt on the
//! HPX-substitute [`taskrt`] runtime. The driver **pre-creates the whole
//! task graph** of a leapfrog iteration, applying the paper's tricks:
//!
//! * **T1 — manual partitioning**: each loop becomes `⌈N/P⌉` tasks of `P`
//!   iterations, with `P` from [`PartitionPlan`] (Table I).
//! * **T2 — continuation chains across loops** (`Features::chain_continuations`):
//!   kernels with only element-/node-local dependencies chain per
//!   partition instead of synchronizing globally.
//! * **T3 — kernel merging** (`Features::merge_kernels`): consecutive small
//!   loops share one task body (loops kept separate inside, preserving the
//!   reference's computational structure).
//! * **T4 — independent chains in parallel** (`Features::parallel_force_chains`,
//!   `Features::parallel_region_eos`): stress ∥ hourglass force chains, and
//!   all per-region EOS chains concurrently.
//! * **T6 — task-local temporaries**: merged tasks keep their scratch on
//!   their own stack/heap; only the per-corner force arrays and `vnewc`
//!   stay global (they cross task boundaries by design).
//!
//! Which kernels run, in which chains, between which syncs is
//! [`StepPlan::tasks`] in `lulesh_core::plan`, the stage list the fork-join
//! driver and the simulator walk too; this crate turns each chain into
//! graph nodes and splices the multi-domain hooks in at named syncs.
//!
//! Six synchronization points per iteration (five sync nodes inside the
//! graph plus the iteration-end join), exactly where element-
//! and node-indexed phases meet. The paper reports seven; our port needs
//! one fewer because the acceleration boundary condition is fused into the
//! per-partition node chains (it is node-local when expressed via index
//! arithmetic) and the volume commit overlaps the dt-constraint scan. See
//! EXPERIMENTS.md for the accounting.
//!
//! Turning every feature off yields the Fig-5 "naive" task port (barrier
//! after every loop, global scratch), which the ablation bench compares
//! against. Results are bit-identical to the serial reference in *all*
//! feature combinations; the tests assert it.
//!
//! ## Deliberate deviation: the graph is recorded once
//!
//! The paper's HPX code re-creates its futures graph every iteration. Here
//! the graph is a [`taskrt::StepGraph`]: recorded once per partition plan,
//! then re-armed iteration after iteration by the worker that finishes the
//! iteration-end join. That worker runs the leapfrog bookkeeping
//! (`time_increment`, error flags, dt minima, `reduce_dt`, tuner window)
//! as the graph's epilogue, so the control thread sleeps for the whole run
//! (or until the auto-tuner changes the plan) and a steady-state iteration
//! allocates nothing. Task bodies read the step's `dt` from the shared
//! scratch instead of capturing it. This preserves behaviour — the same
//! nodes, the same edges, the same six sync points, executed by the same
//! work-stealing pool — and changes only the graph's lifetime: at
//! microsecond task grain (`--s 10`) building 177 closures and ~200
//! promise pairs per step cost more than running them. The [`Features`]
//! toggles change the graph's *shape* exactly as before.

#![warn(missing_docs)]

pub mod autotune;
mod plan;

pub use autotune::{
    AutoTuneConfig, AutoTuneReport, AutoTuner, HysteresisGate, TunePoint, WindowSample,
};
pub use lulesh_core::plan::Features;
pub use plan::{partition_cap, PartitionPlan, MAX_LANE_WIDTH, MIN_PARTITION};

use lulesh_core::domain::Domain;
use lulesh_core::params::SimState;
use lulesh_core::plan::{Chain, Grain, GraphSink, Kernel, Phase, PlanShape, StepPlan, StepScratch};
use lulesh_core::timestep::time_increment;
use lulesh_core::types::{LuleshError, Real};
use obs::{SpanKind, Tracer};
use parutil::{chunks_of, Chunk, SharedVec};
use std::ops::{ControlFlow, Range};
use std::sync::Arc;
use std::time::Instant;
use taskrt::topology::{self, Topology};
use taskrt::{GraphBuilder, NodeId, NodeStealStat, PhaseStat, Runtime, RuntimeConfig, StepGraph};

/// How the driver picks partition sizes for a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PartitionPolicy {
    /// One fixed plan for the whole run.
    Fixed(PartitionPlan),
    /// Online auto-tuning, starting from the thread-aware static plan
    /// ([`PartitionPlan::for_size_threads`]).
    Auto(AutoTuneConfig),
}

/// Σ busy / Σ tasks over a per-phase snapshot.
fn phase_totals(stats: &[PhaseStat]) -> (u64, u64) {
    stats
        .iter()
        .fold((0, 0), |(b, t), p| (b + p.busy_ns, t + p.tasks))
}

/// Re-place the domain's floating-point arrays for NUMA first-touch.
///
/// [`Domain::build`] initializes every array on the build thread, so all
/// pages land on that thread's node. This pass re-allocates each array
/// with [`SharedVec::zeroed`] (untouched zero pages) and copies the data
/// back in from one pinned OS thread per requested node, each writing the
/// contiguous block of `plan`-sized partitions its node's workers will
/// predominantly compute (node `j` of `m` gets partition block
/// `[j·k/m, (j+1)·k/m)` — the same block split [`Topology::assign_workers`]
/// uses for worker placement). Work stealing means the worker→partition
/// mapping is not exact, so this is a placement *hint*: values are copied
/// bit-for-bit and results are unchanged whether or not it runs.
///
/// No-op when fewer than two of `nodes` exist in `topo` (one memory
/// domain: placement is moot).
pub fn first_touch_domain(d: &mut Domain, topo: &Topology, nodes: &[usize], plan: PartitionPlan) {
    let node_cpus: Vec<Vec<usize>> = nodes
        .iter()
        .filter_map(|&id| topo.nodes.iter().find(|n| n.id == id))
        .map(|n| n.cpus.clone())
        .filter(|c| !c.is_empty())
        .collect();
    if node_cpus.len() < 2 {
        return;
    }
    let np = plan.nodal.max(1);
    let ep = plan.elements.max(1);
    macro_rules! touch {
        ($($field:ident: $part:expr),* $(,)?) => {
            $(first_touch_vec(&mut d.$field, $part, &node_cpus);)*
        };
    }
    touch!(
        // Nodal arrays: partitioned by `plan.nodal` in LagrangeNodal.
        m_x: np, m_y: np, m_z: np,
        m_xd: np, m_yd: np, m_zd: np,
        m_xdd: np, m_ydd: np, m_zdd: np,
        m_fx: np, m_fy: np, m_fz: np,
        m_nodal_mass: np,
        // Element arrays: partitioned by `plan.elements` in LagrangeElements.
        m_e: ep, m_p: ep, m_q: ep, m_ql: ep, m_qq: ep,
        m_v: ep, m_volo: ep, m_delv: ep, m_vdov: ep,
        m_arealg: ep, m_ss: ep, m_elem_mass: ep, m_vnew: ep,
        m_dxx: ep, m_dyy: ep, m_dzz: ep,
        // Gradient arrays (empty in single-domain runs, element-length plus
        // comm planes otherwise): element partitioning is the closest fit.
        m_delv_xi: ep, m_delv_eta: ep, m_delv_zeta: ep,
        m_delx_xi: ep, m_delx_eta: ep, m_delx_zeta: ep,
    );
}

/// One array of [`first_touch_domain`]: move the data aside, re-allocate
/// untouched zero pages, and copy each node's partition block back in from
/// a thread pinned to that node.
fn first_touch_vec(v: &mut SharedVec<Real>, part: usize, node_cpus: &[Vec<usize>]) {
    let n = v.len();
    if n == 0 {
        return;
    }
    let mut old = std::mem::replace(v, SharedVec::zeroed(n));
    let src: &[Real] = old.as_mut_slice();
    let dst: &SharedVec<Real> = v;
    let k = n.div_ceil(part);
    let m = node_cpus.len();
    std::thread::scope(|s| {
        for (j, cpus) in node_cpus.iter().enumerate() {
            let lo = (j * k / m * part).min(n);
            let hi = ((j + 1) * k / m * part).min(n);
            if lo >= hi {
                continue;
            }
            let seg = &src[lo..hi];
            s.spawn(move || {
                // Best-effort: an unpinnable thread still copies correctly,
                // it just places the pages wherever it lands.
                let _ = topology::pin_current_thread(cpus);
                // SAFETY: node blocks are disjoint and nothing else holds
                // the freshly allocated `dst` yet.
                unsafe { dst.slice_mut(lo, hi) }.copy_from_slice(seg);
            });
        }
    });
}

/// A communication step injected into the iteration graph (multi-domain
/// halo exchange). Runs as a task of its own between two phases.
pub type Hook = Arc<dyn Fn() + Send + Sync>;

/// Comm/compute-overlapped force exchange: the force gather is split into
/// boundary-plane and interior partitions, the boundary planes are sent as
/// soon as their gathers finish, and the receive+combine runs as a
/// continuation of the send — concurrent with the interior gathers. The
/// single join before the node update is the only barrier, so network
/// latency hides behind interior compute (the HPX parcelport overlap the
/// paper's future-work section points at).
#[derive(Clone)]
pub struct OverlapForces {
    /// Node-index ranges whose gathered forces are communicated (the
    /// boundary planes). The complement is "interior" and overlaps with
    /// the exchange.
    pub boundary: Vec<Range<usize>>,
    /// Posts the boundary planes to the neighbours. Runs once the boundary
    /// gathers finish; must not block on the network (parcelnet sends are
    /// buffered), or a single-worker rank could deadlock.
    pub send: Hook,
    /// Receives the neighbours' planes and combines them into the boundary
    /// nodes — a continuation of `send`, concurrent with interior gathers.
    pub recv_combine: Hook,
}

/// Injection points for inter-domain communication (the `multidom` crate's
/// task-parallel driver): the same three synchronization points the
/// reference's MPI version communicates at.
#[derive(Default, Clone)]
pub struct IterationHooks {
    /// After the force barrier, before the node chains (`CommSBN`: halo-sum
    /// of interface-plane forces).
    pub after_forces: Option<Hook>,
    /// After the kinematics/gradients barrier, before the q-limiter tasks
    /// (`CommMonoQ`: ghost-plane gradient exchange).
    pub after_gradients: Option<Hook>,
    /// Overlapped force exchange; when set it takes precedence over
    /// `after_forces`.
    pub overlap_forces: Option<OverlapForces>,
}

/// The iteration graph under construction. Each task body runs one stage
/// of the [`StepPlan`] over one partition; the graph is built once and run
/// every iteration, so bodies are `Fn` and read the step's `dt` from the
/// [`StepScratch`] instead of capturing it.
struct IterationBuilder<'a> {
    g: GraphBuilder,
    d: &'a Arc<Domain>,
    sc: &'a Arc<StepScratch>,
}

impl GraphSink for IterationBuilder<'_> {
    type Node = NodeId;

    fn task(
        &mut self,
        label: &'static str,
        stage: &[Kernel],
        c: Chunk,
        dep: Option<NodeId>,
    ) -> NodeId {
        let (d, sc, stage) = (Arc::clone(self.d), Arc::clone(self.sc), stage.to_vec());
        self.g.task(label, SpanKind::Task, dep.as_slice(), move || {
            let worker = taskrt::worker_index().expect("graph bodies run on workers");
            // SAFETY: the graph orders the plan's stages and hands chunk `c`
            // to this task alone; slot `worker` is the executing worker's,
            // and a worker runs one body at a time.
            unsafe {
                let (local, dt) = (sc.local(worker), sc.dt());
                for k in &stage {
                    k.run(&d, &sc, local, c, dt);
                }
            }
        })
    }

    fn sync(&mut self, label: &'static str, deps: &[NodeId]) -> NodeId {
        self.g.sync(label, deps)
    }
}

impl IterationBuilder<'_> {
    /// Add a communication hook as a task of its own after `dep`.
    fn halo(&mut self, label: &'static str, dep: NodeId, hook: &Hook) -> NodeId {
        let hook = Arc::clone(hook);
        self.g.task(label, SpanKind::Halo, &[dep], move || hook())
    }

    /// The node phase split at the gather for a halo force exchange
    /// (reference order: gather, `CommSBN`, then the node update), one
    /// extra barrier like the MPI version. With `overlap_forces` the
    /// boundary gathers feed the send the moment they finish, and the
    /// receive+combine continuation runs while the interior gathers are
    /// still in flight; one join before the node update replaces the
    /// gather barrier.
    fn split_node_phase(
        &mut self,
        phase: &Phase,
        start: Option<NodeId>,
        part: usize,
        hooks: &IterationHooks,
        chained: bool,
    ) -> NodeId {
        let node = &phase.chains[0];
        let gather = Chain::new("node-gather", &node.kernels[..1], node.merged);
        let update = Chain::new("node-update", &node.kernels[1..], node.merged);
        let num_node = self.d.num_node();
        let chunks = |ranges: &[Range<usize>]| -> Vec<Chunk> {
            ranges
                .iter()
                .flat_map(|r| chunks_in(r.clone(), part))
                .collect()
        };
        let all: Vec<Chunk> = chunks_of(num_node, part).collect();
        let gathered = if let Some(ov) = &hooks.overlap_forces {
            let boundary = gather.emit(self, &chunks(&ov.boundary), start, chained);
            let interior = chunks(&complement(&ov.boundary, num_node));
            let mut joined = gather.emit(self, &interior, start, chained);
            let bg = self.g.sync("barrier-gather", &boundary);
            let sent = self.halo("halo-send", bg, &ov.send);
            joined.push(self.halo("halo-recv", sent, &ov.recv_combine));
            self.g.sync("barrier-halo", &joined)
        } else {
            let hook = hooks
                .after_forces
                .as_ref()
                .expect("a force hook to split for");
            let gf = gather.emit(self, &all, start, chained);
            let bg = self.g.sync("barrier-gather", &gf);
            self.halo("halo-forces", bg, hook)
        };
        let uf = update.emit(self, &all, Some(gathered), chained);
        self.g.sync(phase.sync, &uf)
    }
}

/// Statistics about one iteration's graph, used by the graph explorer
/// example and the ablation bench.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GraphStats {
    /// Total tasks created this iteration.
    pub tasks: usize,
    /// Synchronization points (`when_all` joins), iteration-end included.
    pub barriers: usize,
}

/// The many-task LULESH runner.
pub struct TaskLulesh {
    rt: Runtime,
    /// Optimization toggles.
    pub features: Features,
    stats: std::cell::Cell<GraphStats>,
    /// Report from the most recent `Auto`-policy run.
    auto_report: std::cell::RefCell<Option<AutoTuneReport>>,
}

impl TaskLulesh {
    /// Runner with `threads` workers and all paper optimizations on.
    pub fn new(threads: usize) -> Self {
        Self::with_features(threads, Features::default())
    }

    /// Runner with explicit feature toggles.
    pub fn with_features(threads: usize, features: Features) -> Self {
        Self {
            rt: Runtime::new(threads),
            features,
            stats: Default::default(),
            auto_report: Default::default(),
        }
    }

    /// Runner with span tracing attached: worker `i` records onto `tracer`
    /// lane `lane_base + i`; driver-level spans (the per-iteration region)
    /// go on the control lane `lane_base + threads`.
    pub fn with_tracer(
        threads: usize,
        features: Features,
        tracer: Arc<Tracer>,
        lane_base: usize,
    ) -> Self {
        Self {
            rt: Runtime::with_tracer(threads, tracer, lane_base),
            features,
            stats: Default::default(),
            auto_report: Default::default(),
        }
    }

    /// Runner built from an explicit [`RuntimeConfig`] — the full-control
    /// constructor used by the binaries to combine tracing with NUMA
    /// pinning (`--pin`).
    pub fn from_runtime_config(config: RuntimeConfig, features: Features) -> Self {
        Self {
            rt: config.build(),
            features,
            stats: Default::default(),
            auto_report: Default::default(),
        }
    }

    /// The attached tracer, if tracing is enabled.
    pub fn tracer(&self) -> Option<&Arc<Tracer>> {
        self.rt.tracer()
    }

    /// Node id each worker is assigned to (all zeros when unpinned).
    pub fn worker_nodes(&self) -> &[usize] {
        self.rt.worker_nodes()
    }

    /// Whether the workers were pinned to CPUs at startup.
    pub fn is_pinned(&self) -> bool {
        self.rt.is_pinned()
    }

    /// Number of workers whose `sched_setaffinity` call failed (pinning
    /// is best-effort; failures degrade to unpinned workers).
    pub fn pin_failures(&self) -> usize {
        self.rt.pin_failures()
    }

    /// Per-NUMA-node steal counters (local + remote) since the last
    /// counter reset.
    pub fn node_steal_stats(&self) -> Vec<NodeStealStat> {
        self.rt.node_steal_stats()
    }

    /// Worker thread count.
    pub fn threads(&self) -> usize {
        self.rt.threads()
    }

    /// Productive-time ratio since the last counter reset (HPX idle-rate
    /// counter; Figure 11's HPX series).
    pub fn utilization(&self) -> f64 {
        self.rt.utilization_since_reset()
    }

    /// Reset the runtime performance counters.
    pub fn reset_counters(&self) {
        self.rt.reset_counters()
    }

    /// Raw runtime counter snapshot.
    pub fn runtime_stats(&self) -> taskrt::RuntimeStats {
        self.rt.stats()
    }

    /// Task/barrier counts of the most recently built iteration graph.
    pub fn graph_stats(&self) -> GraphStats {
        self.stats.get()
    }

    /// Per-phase busy/task aggregates from the runtime's always-on
    /// counters (the auto-tuner's timing signal when tracing is off).
    pub fn phase_stats(&self) -> Vec<PhaseStat> {
        self.rt.phase_stats()
    }

    /// The [`AutoTuneReport`] of the most recent
    /// [`PartitionPolicy::Auto`] run; `None` after fixed-plan runs.
    pub fn auto_report(&self) -> Option<AutoTuneReport> {
        self.auto_report.borrow().clone()
    }

    /// Run for at most `max_cycles` iterations (or to `stoptime`).
    pub fn run(
        &self,
        d: &Arc<Domain>,
        plan: PartitionPlan,
        max_cycles: u64,
    ) -> Result<SimState, LuleshError> {
        self.run_policy(d, PartitionPolicy::Fixed(plan), max_cycles)
    }

    /// [`run`](Self::run) with a partition *policy* instead of a fixed
    /// plan (`--partition auto`).
    pub fn run_policy(
        &self,
        d: &Arc<Domain>,
        policy: PartitionPolicy,
        max_cycles: u64,
    ) -> Result<SimState, LuleshError> {
        self.run_policy_with_hooks(
            d,
            policy,
            max_cycles,
            &IterationHooks::default(),
            |c, h, err| match err {
                Some(e) => Err(e),
                None => Ok((c, h)),
            },
        )
    }

    /// [`run`](Self::run) with inter-domain communication hooks and a dt
    /// reduction. `reduce_dt` receives this domain's constraint minima plus
    /// its local error (if the iteration tripped one) and returns the
    /// global minima, or the error any participating domain reported — the
    /// multi-domain allreduce. It is called **every** iteration, error or
    /// not, so peers blocked in the reduction always get a message (a rank
    /// returning early on its own error would deadlock the others).
    pub fn run_with_hooks(
        &self,
        d: &Arc<Domain>,
        plan: PartitionPlan,
        max_cycles: u64,
        hooks: &IterationHooks,
        reduce_dt: impl Fn(Real, Real, Option<LuleshError>) -> Result<(Real, Real), LuleshError>
            + Send
            + Sync,
    ) -> Result<SimState, LuleshError> {
        self.run_policy_with_hooks(
            d,
            PartitionPolicy::Fixed(plan),
            max_cycles,
            hooks,
            reduce_dt,
        )
    }

    /// [`run_with_hooks`](Self::run_with_hooks) generalized over the
    /// partition policy. Under [`PartitionPolicy::Auto`] the driver times
    /// each window of `window` iterations, reads the runtime's per-phase
    /// busy/task aggregates for the granularity signal, and lets the
    /// [`AutoTuner`] pick the next window's plan; the final
    /// [`AutoTuneReport`] is retrievable via
    /// [`auto_report`](Self::auto_report). Partition sizes never affect
    /// the physics, so mid-run resizes are invisible to the results.
    ///
    /// The iteration graph is built once per plan and re-armed every
    /// iteration by the worker that finishes it; `reduce_dt` therefore runs
    /// on a worker thread, and this thread sleeps until the run ends or the
    /// tuner changes the plan.
    pub fn run_policy_with_hooks(
        &self,
        d: &Arc<Domain>,
        policy: PartitionPolicy,
        max_cycles: u64,
        hooks: &IterationHooks,
        reduce_dt: impl Fn(Real, Real, Option<LuleshError>) -> Result<(Real, Real), LuleshError>
            + Send
            + Sync,
    ) -> Result<SimState, LuleshError> {
        let threads = self.rt.threads();
        let (tuner, plan) = match policy {
            PartitionPolicy::Fixed(plan) => (None, plan),
            PartitionPolicy::Auto(cfg) => {
                let start = PartitionPlan::for_size_threads(d.size(), threads);
                let tuner = AutoTuner::new(start, threads, d.num_elem(), cfg);
                let plan = tuner.plan();
                (Some(tuner), plan)
            }
        };
        let step = StepPlan::tasks(PlanShape::of(d), self.features);
        let scratch = Arc::new(StepScratch::new(&step, threads));
        let mut lf = Leapfrog {
            d,
            sc: &scratch,
            rt: &self.rt,
            reduce_dt: &reduce_dt,
            max_cycles,
            state: SimState::new(d.initial_dt()),
            error: None,
            plan,
            tuner,
            win_iters: 0,
            win_t0: Instant::now(),
            win_base: phase_totals(&self.rt.phase_stats()),
            // Called here, off the workers: the control lane.
            region_lane: self.rt.current_lane(),
            region_start: 0,
        };
        while lf.live() {
            let mut graph = self.build_iteration(d, &scratch, &step, lf.plan, hooks);
            lf.begin_iteration();
            self.rt.run_graph(&mut graph, || lf.end_iteration());
        }
        self.auto_report.replace(lf.tuner.map(|t| t.report()));
        match lf.error {
            Some(e) => Err(e),
            None => Ok(lf.state),
        }
    }

    /// Build the task graph of one `LagrangeLeapFrog` iteration from
    /// `step`: every chain becomes one task per stage per partition, with
    /// the hooks spliced in at their named syncs.
    fn build_iteration(
        &self,
        d: &Arc<Domain>,
        sc: &Arc<StepScratch>,
        step: &StepPlan,
        plan: PartitionPlan,
        hooks: &IterationHooks,
    ) -> StepGraph {
        let mut b = IterationBuilder {
            g: GraphBuilder::new(),
            d,
            sc,
        };
        let chained = self.features.chain_continuations;
        let split_nodes = hooks.after_forces.is_some() || hooks.overlap_forces.is_some();
        let mut dep = None;
        for phase in &step.phases {
            let part = match phase.grain {
                Grain::Nodal => plan.nodal,
                Grain::Elements => plan.elements,
            };
            let mut end = if split_nodes && phase.sync == "barrier-nodes" {
                b.split_node_phase(phase, dep, part, hooks, chained)
            } else {
                step.emit_phase(&mut b, phase, part, dep, chained)
            };
            // Inter-domain gradient-ghost exchange (multi-domain runs).
            if let (Some(hook), "barrier-kinematics") = (&hooks.after_gradients, phase.sync) {
                end = b.halo("halo-gradients", end, hook);
            }
            dep = Some(end);
        }

        let graph = b.g.build(&self.rt);
        self.stats.set(GraphStats {
            tasks: graph.tasks(),
            barriers: graph.syncs(),
        });
        graph
    }
}

/// The leapfrog bookkeeping around the iteration graph: owned by the
/// control thread while it builds a graph, and by the graph's epilogue —
/// on whichever worker finished the iteration — while one runs.
struct Leapfrog<'a, R> {
    d: &'a Domain,
    sc: &'a StepScratch,
    rt: &'a Runtime,
    reduce_dt: &'a R,
    max_cycles: u64,
    state: SimState,
    /// The error that ended the run, if one did.
    error: Option<LuleshError>,
    plan: PartitionPlan,
    tuner: Option<AutoTuner>,
    win_iters: u32,
    win_t0: Instant,
    win_base: (u64, u64),
    /// Traced runs: lane and start of the running iteration's region span.
    region_lane: usize,
    region_start: u64,
}

impl<R> Leapfrog<'_, R>
where
    R: Fn(Real, Real, Option<LuleshError>) -> Result<(Real, Real), LuleshError>,
{
    fn live(&self) -> bool {
        self.error.is_none()
            && self.state.time < self.d.params.stoptime
            && self.state.cycle < self.max_cycles
    }

    /// Advance the clock and publish the step's inputs to the task bodies.
    fn begin_iteration(&mut self) {
        time_increment(&mut self.state, &self.d.params);
        self.sc.begin_iteration(self.state.deltatime);
        if let Some(tracer) = self.rt.tracer() {
            self.region_start = tracer.now_ns();
        }
    }

    /// The graph's epilogue: close the iteration just executed and either
    /// start the next one on the same graph (`Continue`) or hand back to
    /// the control thread (`Break`: run over, or the plan changed).
    fn end_iteration(&mut self) -> ControlFlow<()> {
        if let Some(tracer) = self.rt.tracer() {
            // One region span per leapfrog iteration, on the control lane.
            let now = tracer.now_ns();
            tracer.record_interval(
                self.region_lane,
                SpanKind::Region,
                "iteration",
                self.region_start,
                now,
            );
        }
        let (c, h) = self.sc.dt_mins();
        match (self.reduce_dt)(c, h, self.sc.error()) {
            Ok((c, h)) => {
                self.state.dtcourant = c;
                self.state.dthydro = h;
            }
            Err(e) => {
                self.error = Some(e);
                return ControlFlow::Break(());
            }
        }
        let replan = self.close_tuner_window();
        if replan || !self.live() {
            return ControlFlow::Break(());
        }
        self.begin_iteration();
        ControlFlow::Continue(())
    }

    /// Auto policy: count the iteration into the tuner's window and, when
    /// the window is full, let the tuner move. Returns whether the plan
    /// changed (the graph must then be rebuilt).
    fn close_tuner_window(&mut self) -> bool {
        let Some(t) = self.tuner.as_mut() else {
            return false;
        };
        self.win_iters += 1;
        if self.win_iters < t.config().window || t.converged() {
            return false;
        }
        let wall = self.win_t0.elapsed().as_nanos() as f64 / f64::from(self.win_iters);
        let now = phase_totals(&self.rt.phase_stats());
        let d_busy = now.0.saturating_sub(self.win_base.0);
        let d_tasks = now.1.saturating_sub(self.win_base.1);
        let mean_task_ns = if d_tasks > 0 {
            d_busy as f64 / d_tasks as f64
        } else {
            f64::INFINITY
        };
        t.record_window(WindowSample {
            wall_per_iter_ns: wall,
            mean_task_ns,
        });
        if t.config().tune_width {
            // `--simd auto`: the next window runs at the tuner's width.
            // Safe mid-run — no task is running between two iterations,
            // and every width is bit-identical, so only speed changes.
            lulesh_core::simd::set_active(t.width());
        }
        self.win_iters = 0;
        self.win_t0 = Instant::now();
        self.win_base = now;
        let replan = t.plan() != self.plan;
        self.plan = t.plan();
        replan
    }
}

/// Chunks covering an arbitrary sub-range (the boundary/interior split of
/// the overlapped force gather).
fn chunks_in(r: Range<usize>, size: usize) -> impl Iterator<Item = Chunk> {
    let base = r.start;
    chunks_of(r.len(), size).map(move |c| Chunk {
        begin: c.begin + base,
        end: c.end + base,
    })
}

/// The complement of `ranges` within `0..n` (the interior partition).
fn complement(ranges: &[Range<usize>], n: usize) -> Vec<Range<usize>> {
    let mut rs = ranges.to_vec();
    rs.sort_by_key(|r| r.start);
    let mut out = Vec::new();
    let mut pos = 0;
    for r in rs {
        if r.start > pos {
            out.push(pos..r.start);
        }
        pos = pos.max(r.end);
    }
    if pos < n {
        out.push(pos..n);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lulesh_core::serial;
    use lulesh_core::validate::max_field_difference;

    fn run_task(
        size: usize,
        regs: usize,
        threads: usize,
        cycles: u64,
        features: Features,
        plan: PartitionPlan,
    ) -> (Arc<Domain>, SimState) {
        let d = Arc::new(Domain::build(size, regs, 1, 1, 0));
        let runner = TaskLulesh::with_features(threads, features);
        let st = runner.run(&d, plan, cycles).unwrap();
        (d, st)
    }

    fn serial_ref(size: usize, regs: usize, cycles: u64) -> Domain {
        let d = Domain::build(size, regs, 1, 1, 0);
        serial::run(&d, cycles).unwrap();
        d
    }

    #[test]
    fn matches_serial_default_features() {
        let ds = serial_ref(6, 3, 10);
        let (dt, _) = run_task(
            6,
            3,
            4,
            10,
            Features::default(),
            PartitionPlan::fixed(32, 32),
        );
        assert_eq!(
            max_field_difference(&ds, &dt),
            0.0,
            "bitwise agreement expected"
        );
    }

    #[test]
    fn matches_serial_naive_features() {
        let ds = serial_ref(6, 3, 10);
        let (dt, _) = run_task(6, 3, 4, 10, Features::naive(), PartitionPlan::fixed(32, 32));
        assert_eq!(max_field_difference(&ds, &dt), 0.0);
    }

    #[test]
    fn matches_serial_each_feature_off() {
        let ds = serial_ref(5, 4, 8);
        for (name, features) in [
            (
                "no-chains",
                Features {
                    chain_continuations: false,
                    ..Features::default()
                },
            ),
            (
                "no-merge",
                Features {
                    merge_kernels: false,
                    ..Features::default()
                },
            ),
            (
                "no-par-force",
                Features {
                    parallel_force_chains: false,
                    ..Features::default()
                },
            ),
            (
                "no-par-eos",
                Features {
                    parallel_region_eos: false,
                    ..Features::default()
                },
            ),
        ] {
            let (dt, _) = run_task(5, 4, 3, 8, features, PartitionPlan::fixed(16, 16));
            assert_eq!(max_field_difference(&ds, &dt), 0.0, "feature set {name}");
        }
    }

    #[test]
    fn matches_serial_single_thread() {
        let ds = serial_ref(5, 2, 12);
        let (dt, _) = run_task(
            5,
            2,
            1,
            12,
            Features::default(),
            PartitionPlan::fixed(64, 64),
        );
        assert_eq!(max_field_difference(&ds, &dt), 0.0);
    }

    #[test]
    fn partition_size_does_not_change_results() {
        let ds = serial_ref(6, 5, 10);
        for p in [8, 37, 100, 4096] {
            let (dt, _) = run_task(6, 5, 2, 10, Features::default(), PartitionPlan::fixed(p, p));
            assert_eq!(max_field_difference(&ds, &dt), 0.0, "partition {p}");
        }
    }

    #[test]
    fn state_matches_serial() {
        let d = Domain::build(5, 2, 1, 1, 0);
        let st_s = serial::run(&d, 1_000_000).unwrap();
        let (_, st_t) = run_task(
            5,
            2,
            2,
            1_000_000,
            Features::default(),
            PartitionPlan::fixed(64, 64),
        );
        assert_eq!(st_s.cycle, st_t.cycle);
        assert_eq!(st_s.time, st_t.time);
        assert_eq!(st_s.dtcourant, st_t.dtcourant);
        assert_eq!(st_s.dthydro, st_t.dthydro);
    }

    #[test]
    fn graph_stats_reported() {
        let d = Arc::new(Domain::build(6, 3, 1, 1, 0));
        let runner = TaskLulesh::new(2);
        runner.run(&d, PartitionPlan::fixed(32, 32), 1).unwrap();
        let g = runner.graph_stats();
        assert!(g.tasks > 20, "expected a real graph, got {} tasks", g.tasks);
        // Five internal barriers + the iteration-end join; one fewer than
        // the paper's seven (see module docs).
        assert_eq!(g.barriers, 6);
    }

    #[test]
    fn naive_features_have_more_barriers() {
        let d = Arc::new(Domain::build(5, 3, 1, 1, 0));
        let opt = TaskLulesh::new(2);
        opt.run(&d, PartitionPlan::fixed(32, 32), 1).unwrap();
        let d2 = Arc::new(Domain::build(5, 3, 1, 1, 0));
        let naive = TaskLulesh::with_features(2, Features::naive());
        naive.run(&d2, PartitionPlan::fixed(32, 32), 1).unwrap();
        assert!(
            naive.graph_stats().barriers > opt.graph_stats().barriers,
            "naive {} vs optimized {}",
            naive.graph_stats().barriers,
            opt.graph_stats().barriers
        );
    }

    #[test]
    fn traced_run_has_six_sync_points_per_iteration() {
        // Satellite check for the paper's sync-point accounting: the claim
        // of six synchronization points per leapfrog iteration is verified
        // at *runtime* from emitted barrier spans, not from GraphStats
        // bookkeeping (which could drift from what actually executes).
        let iterations = 4u64;
        let threads = 3usize;
        let tracer = Tracer::shared(threads + 1);
        let d = Arc::new(Domain::build(5, 3, 1, 1, 0));
        let runner = TaskLulesh::with_tracer(threads, Features::default(), Arc::clone(&tracer), 0);
        let st = runner
            .run(&d, PartitionPlan::fixed(32, 32), iterations)
            .unwrap();
        assert_eq!(st.cycle, iterations);

        let spans = tracer.drain();
        let barrier_spans = spans.iter().filter(|s| s.kind == SpanKind::Barrier).count();
        assert_eq!(
            barrier_spans as u64,
            6 * iterations,
            "default features must execute exactly 6 sync points per iteration"
        );
        let iter_spans = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Region && s.label == "iteration")
            .count();
        assert_eq!(iter_spans as u64, iterations);
        // Every graph task got a span, and the labels are the kernel set.
        assert!(spans.iter().filter(|s| s.kind == SpanKind::Task).all(|s| {
            matches!(
                s.label,
                "stress"
                    | "hourglass"
                    | "node"
                    | "node-gather"
                    | "node-update"
                    | "kinematics"
                    | "monoq"
                    | "vnewc"
                    | "qstop"
                    | "eos"
                    | "volume"
                    | "constraints"
            )
        }));
    }

    #[test]
    fn traced_matches_untraced_results() {
        // Tracing must be observational only: bit-identical physics.
        let ds = serial_ref(5, 2, 6);
        let tracer = Tracer::shared(3);
        let d = Arc::new(Domain::build(5, 2, 1, 1, 0));
        let runner = TaskLulesh::with_tracer(2, Features::default(), tracer, 0);
        runner.run(&d, PartitionPlan::fixed(32, 32), 6).unwrap();
        assert_eq!(max_field_difference(&ds, &d), 0.0);
    }

    #[test]
    fn utilization_reported() {
        let d = Arc::new(Domain::build(5, 2, 1, 1, 0));
        let runner = TaskLulesh::new(2);
        runner.reset_counters();
        runner.run(&d, PartitionPlan::fixed(64, 64), 5).unwrap();
        let u = runner.utilization();
        // Raw (unclamped) ratio with ε slack for clock-read skew.
        assert!(u > 0.0 && u <= 1.05, "utilization {u}");
        assert!(runner.runtime_stats().tasks > 0);
    }

    #[test]
    fn auto_policy_matches_serial_while_resizing() {
        // The tuner resizes partitions mid-run; physics must stay
        // bit-identical to the serial reference regardless.
        let ds = serial_ref(6, 5, 24);
        let d = Arc::new(Domain::build(6, 5, 1, 1, 0));
        let runner = TaskLulesh::new(3);
        let cfg = AutoTuneConfig {
            window: 2,
            warmup_windows: 1,
            min_task_ns: 0.0, // tiny test tasks: let the tuner actually probe finer
            ..AutoTuneConfig::default()
        };
        let st = runner
            .run_policy(&d, PartitionPolicy::Auto(cfg), 24)
            .unwrap();
        assert_eq!(max_field_difference(&ds, &d), 0.0);
        assert!(st.cycle > 0);
        let report = runner.auto_report().expect("auto run leaves a report");
        assert!(report.windows >= 3, "windows {}", report.windows);
        let plans: std::collections::BTreeSet<_> = report
            .history
            .iter()
            .map(|(p, _)| (p.plan.nodal, p.plan.elements))
            .collect();
        assert!(
            plans.len() >= 2,
            "tuner never actually tried a different plan: {plans:?}"
        );
    }

    #[test]
    fn fixed_policy_runs_leave_no_auto_report() {
        let d = Arc::new(Domain::build(5, 2, 1, 1, 0));
        let runner = TaskLulesh::new(2);
        runner
            .run_policy(&d, PartitionPolicy::Fixed(PartitionPlan::fixed(64, 64)), 3)
            .unwrap();
        assert!(runner.auto_report().is_none());
    }

    #[test]
    fn phase_stats_cover_the_kernel_phases() {
        let d = Arc::new(Domain::build(6, 3, 1, 1, 0));
        let runner = TaskLulesh::new(2);
        runner.run(&d, PartitionPlan::fixed(64, 64), 2).unwrap();
        let phases = runner.phase_stats();
        let labels: Vec<_> = phases.iter().map(|p| p.label).collect();
        for expected in ["stress", "hourglass", "kinematics", "eos"] {
            assert!(labels.contains(&expected), "missing phase {expected}");
        }
        assert!(phases.iter().all(|p| p.tasks > 0));
    }
}
