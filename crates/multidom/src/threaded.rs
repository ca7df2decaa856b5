//! MPI-style threaded driver: one OS thread per rank, halo exchange over a
//! [`parcelnet`] transport — in-process channels or real TCP sockets — the
//! communication structure the paper's future-work section anticipates
//! comparing against. Works over any 3-D rank grid (up to 26 neighbours
//! per rank) and produces results **bit-identical** to the lockstep
//! [`World`](crate::World) driver (every sharer of a boundary node combines
//! partials in the same ascending-rank order), on *every* transport and
//! with either [`RankExec`]: the wire carries the same bytes either way.
//!
//! ## Failure model
//!
//! Two failure classes, both typed, neither deadlocks:
//!
//! * **Simulation aborts** (negative volume, q-stop): the erroring rank
//!   keeps satisfying the exchange protocol with garbage data and rides the
//!   error on the dt allreduce, so every rank returns the same
//!   [`LuleshError`] in the same iteration.
//! * **Transport failures** (peer died, deadline passed, corrupt frame):
//!   the observing rank returns [`MdError::Net`] at the end of the step
//!   and drops its links, which cascades — every surviving rank observes
//!   `PeerClosed` or `Timeout` within one receive deadline.

use crate::exchange::{exchange, recv_apply, send, HaloPlan, ObsCtx};
use crate::{
    connect, Decomposition, FaultPlan, MdError, RankExec, RankObs, RunPlan, SimArgs, TransportKind,
};
use lulesh_core::domain::Domain;
use lulesh_core::mesh::MeshShape;
use lulesh_core::params::SimState;
use lulesh_core::plan::{Chain, GraphSink, Halo, Kernel, Phase, PlanShape, StepPlan, StepScratch};
use lulesh_core::timestep::time_increment;
use lulesh_core::types::{LuleshError, Real};
use lulesh_task::{Features, PartitionPlan, StepBuilder, TaskLulesh};
use obs::{SpanKind, Tracer};
use parcelnet::{ParcelError, RankNet};
use parking_lot::Mutex;
use parutil::{chunks_in, chunks_of, Chunk};
use std::sync::Arc;
use std::time::Duration;
use taskrt::{NodeId, StepGraph};

/// Ping-pong rounds for the clock-alignment handshake: enough that the
/// min-RTT round tracks the true offset to well under typical frame
/// latencies, cheap enough to be invisible at startup.
const CLOCK_SYNC_ROUNDS: usize = 8;

/// Run the decomposed problem with one thread per rank (named
/// `multidom-rank-{r}`), MPI-style, over `plan.transport`, returning every
/// rank's outcome in rank order (bottom slab first); a rank whose
/// bootstrap failed reports that failure. [`crate::fold`] turns them into
/// one result.
pub fn run(
    decomp: Decomposition,
    sim: SimArgs,
    plan: &RunPlan,
) -> Vec<Result<(Domain, SimState), MdError>> {
    let nets = connect(decomp, plan);
    std::thread::scope(|s| {
        let handles: Vec<_> = nets
            .into_iter()
            .enumerate()
            .map(|(r, net)| {
                std::thread::Builder::new()
                    .name(format!("multidom-rank-{r}"))
                    .spawn_scoped(s, move || run_rank(decomp.shape(r), net?, sim, plan).0)
                    .expect("spawn rank thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread must not panic"))
            .collect()
    })
}

/// [`run`] with the transport, deadline, tracer and faults spelled out —
/// the signature the benchmark probe links.
pub fn run_transport(
    decomp: Decomposition,
    kind: TransportKind,
    deadline: Duration,
    sim: SimArgs,
    trace: Option<Arc<Tracer>>,
    faults: FaultPlan,
) -> Vec<Result<(Domain, SimState), MdError>> {
    run(
        decomp,
        sim,
        &RunPlan {
            transport: kind,
            deadline,
            trace,
            faults,
            ..RunPlan::default()
        },
    )
}

/// One rank's full simulation over an already-connected [`RankNet`] — the
/// loop every [`run`] thread executes, and the entry point the
/// multi-process TCP launcher calls with a net from
/// [`parcelnet::tcp::root`]/[`parcelnet::tcp::join`].
///
/// With `plan.trace`, rank `r` records on lane `r`: a serial rank's plan
/// phases as [`SpanKind::Region`] spans (a task rank: one `task-graph`
/// region per step), its exchanges as [`SpanKind::Halo`] spans (a serial rank's outer
/// `halo-*` span plus the links' parcel-level spans; writer-thread
/// serialize spans go on lane `ranks + r` when the tracer has that many
/// lanes) and the dt allreduce as a [`SpanKind::Barrier`] span; rank 0's
/// lane also carries one `iteration` span per step. A task rank's workers
/// record the graph's tasks, syncs and halo stages on
/// [`RankExec::worker_lanes`]. `plan.live` samples the step summaries from
/// lane `r` (recorded into a private tracer when `plan.trace` is off), and
/// `plan.resil` arms checkpoint/resume; a resumed run replays the
/// remaining cycles **bit-identically**.
///
/// A traced run first aligns clocks over the dt star. The offset (this
/// rank's clock − rank 0's, ns; 0 untraced or on rank 0) is returned
/// beside the outcome, failed or not, so the rank's trace file can be
/// aligned either way.
pub fn run_rank(
    shape: MeshShape,
    net: RankNet,
    sim: SimArgs,
    plan: &RunPlan,
) -> (Result<(Domain, SimState), MdError>, i64) {
    let rank = net.rank;
    let robs = RankObs::attach(plan, &net);
    let synced = match plan.trace.as_deref() {
        Some(t) if net.ranks > 1 => {
            let start = t.now_ns();
            let off = net.clock_sync(&|| t.now_ns(), CLOCK_SYNC_ROUNDS);
            t.record_interval(rank, SpanKind::Region, "clock-sync", start, t.now_ns());
            off
        }
        _ => Ok(0),
    };
    let result = match synced {
        Ok(_) => step_loop(shape, net, sim, plan, &robs),
        Err(e) => Err(MdError::Net(e)),
    };
    robs.finish(&result);
    (result, synced.unwrap_or(0))
}

fn step_loop(
    shape: MeshShape,
    net: RankNet,
    sim: SimArgs,
    plan: &RunPlan,
    phase: &RankObs,
) -> Result<(Domain, SimState), MdError> {
    let rank = net.rank;
    let mut d = Domain::build_subdomain(shape, sim.num_reg, sim.balance, sim.cost, sim.seed);
    d.params = sim.params;
    // A poisoned mid-domain volume trips a VolumeError in the first step.
    if plan.faults.poison_volume == Some(rank) {
        d.set_v(d.num_elem() / 2, -0.25);
    }
    let r = Arc::new(Rank {
        d: Arc::new(d),
        halo: HaloPlan::for_net(shape, &net),
        net,
        trace: phase.tracer.clone(),
        failed: Mutex::new(None),
    });
    let (d, net) = (&r.d, &r.net);
    let obs: ObsCtx = phase.ctx();
    let resil = &plan.resil;

    // Either a resume (restore the checkpointed arrays — the snapshot was
    // captured *after* the mass exchange, so nodal masses are already
    // combined) or the one-time nodal mass exchange of a fresh start.
    // Coordinated restart: every rank resumes from the same wave, so no
    // rank is left sending mass surfaces at a peer that skipped them.
    let mut state = match (&resil.ckpt, resil.resume_cycle) {
        (Some(cfg), Some(cycle)) => phase.timed("resume-restore", SpanKind::Region, || {
            resil::load_snapshot(&cfg.dir, rank, cycle).and_then(|snap| snap.restore(d))
        })?,
        _ => {
            phase.timed(Halo::Mass.label(), SpanKind::Halo, || {
                exchange(Halo::Mass, d, &r.halo, net, obs)
            })?;
            SimState::new(d.initial_dt())
        }
    };

    // Async checkpoint writer: capture happens on this thread (cheap SoA
    // copies), serialization + file I/O on the writer thread.
    let writer = match &resil.ckpt {
        Some(cfg) => Some(resil::CkptWriter::spawn(&cfg.dir)?),
        None => None,
    };

    let mut exec = match plan.exec {
        RankExec::Serial => Exec::Serial(Box::new(SerialRank::new(d))),
        RankExec::Tasks { threads, partition } => {
            Exec::Tasks(TaskRank::new(&r, threads, partition, plan))
        }
    };

    while state.time < sim.params.stoptime && state.cycle < sim.max_cycles {
        // Checkpoint *before* the fault-injection check: a rank dying at
        // cycle C has submitted its wave-C snapshot, and every peer
        // reaches the top of C before observing the death (they all
        // completed C−1's allreduce) — so wave C is globally consistent.
        if let (Some(w), Some(cfg)) = (writer.as_ref(), resil.ckpt.as_ref()) {
            if state.cycle % cfg.period == 0 && resil.resume_cycle != Some(state.cycle) {
                phase.timed("ckpt-capture", SpanKind::Region, || {
                    w.submit(resil::DomainSnapshot::capture(rank, d, &state), state.cycle)
                });
            }
        }
        // The step-time window opens here, before an injected stall, so
        // the lost time shows up in this rank's sample. (A death drops
        // every link; the writer thread flushes pending snapshots on drop.)
        let since = phase.mark();
        plan.faults.inject(rank, state.cycle)?;
        let iter_start = obs.map(|(t, _)| t.now_ns());
        time_increment(&mut state, &sim.params);
        let dt = state.deltatime;

        let (local_err, c, h) = match &mut exec {
            Exec::Serial(s) => s.step(&r, phase, dt)?,
            Exec::Tasks(t) => t.step(&r, phase, dt)?,
        };

        // dt constraints: allreduce(min) through rank 0, errors (and, on
        // telemetry steps, this rank's step summary) riding along so
        // everyone aborts in the same iteration.
        let (gc, gh, gerr) = phase.timed("barrier-dt", SpanKind::Barrier, || {
            phase.allreduce_dt(net, state.cycle, since, c, h, local_err)
        })?;
        if let Some(e) = gerr {
            // Every rank is returning this same error right now; links are
            // dropped together, so nobody is left reading.
            return Err(MdError::Sim(e));
        }
        state.dtcourant = gc;
        state.dthydro = gh;
        if let (0, Some((t, lane)), Some(start)) = (rank, obs, iter_start) {
            t.record_interval(lane, SpanKind::Region, "iteration", start, t.now_ns());
        }
    }

    // Graceful shutdown: Bye on every link, so no socket is abandoned with
    // a peer still reading from it.
    net.close()?;
    drop(exec);
    let d = Arc::into_inner(r).and_then(|r| Arc::into_inner(r.d));
    Ok((d.expect("the step graph released the domain"), state))
}

/// What a rank's step reaches: its subdomain, halo schedule and links.
/// A task rank's halo stages run on workers, so they also find here the
/// rank lane their parcel-level spans go on, and the slot a transport
/// error lands in: every later stage of the step skips, and the rank loop
/// returns the error after the step.
struct Rank {
    d: Arc<Domain>,
    halo: HaloPlan,
    net: RankNet,
    trace: Option<(Arc<Tracer>, usize)>,
    failed: Mutex<Option<ParcelError>>,
}

/// A step's local outcome: the simulation error it tripped, if any, and
/// this rank's `(dtcourant, dthydro)` minima.
type StepOut = (Option<LuleshError>, Real, Real);

/// How this rank computes its steps ([`RankExec`]).
enum Exec {
    Serial(Box<SerialRank>),
    Tasks(TaskRank),
}

/// A serial rank: [`StepPlan::tasks`] walked in order on the rank's thread,
/// each chain as one chunk over its whole space, with a one-slot scratch.
struct SerialRank {
    plan: StepPlan,
    sc: StepScratch,
}

impl SerialRank {
    fn new(d: &Domain) -> Self {
        let plan = StepPlan::tasks(PlanShape::of(d), Features::default());
        let sc = StepScratch::new(&plan, 1);
        Self { plan, sc }
    }

    /// One step between the fault check and the dt allreduce. Each phase is
    /// a `Region` span named after its sync (`forces`, `nodes`, ...), each
    /// exchange its phase marks ([`Phase::halo`]) a `Halo` span: `Forces`
    /// between the node chain's gather and its update, any other kind after
    /// the phase.
    ///
    /// A *simulation* error must not abandon the exchange protocol — the
    /// neighbours are blocked on our messages. It skips the step's
    /// remaining kernels but not its exchanges (the data is garbage, but
    /// every rank aborts together at the allreduce). A *transport* error
    /// aborts the step: the rank returns and drops its links, which the
    /// neighbours observe within their deadline.
    fn step(&self, r: &Rank, phase: &RankObs, dt: Real) -> Result<StepOut, ParcelError> {
        let (d, sc) = (&*r.d, &self.sc);
        sc.begin_iteration(dt);
        let run = |chain: &Chain, kernels: &[Kernel]| {
            let whole = Chunk {
                begin: 0,
                end: self.plan.shape.len(chain.space),
            };
            for k in kernels.iter().take_while(|_| sc.error().is_none()) {
                // SAFETY: this thread runs every kernel of the plan, in
                // plan order, each over its chain's whole space.
                unsafe { k.run(d, sc, sc.local(0), whole, dt) };
            }
        };
        let halo = |kind: Halo| {
            phase.timed(kind.label(), SpanKind::Halo, || {
                exchange(kind, d, &r.halo, &r.net, phase.ctx())
            })
        };
        for p in &self.plan.phases {
            let label = p.sync.trim_start_matches("barrier-");
            if p.halo == Some(Halo::Forces) {
                let node = &p.chains[0];
                phase.timed(label, SpanKind::Region, || run(node, &node.kernels[..1]));
                halo(Halo::Forces)?;
                phase.timed(label, SpanKind::Region, || run(node, &node.kernels[1..]));
                continue;
            }
            phase.timed(label, SpanKind::Region, || {
                p.chains.iter().for_each(|c| run(c, &c.kernels))
            });
            if let Some(kind) = p.halo {
                halo(kind)?;
            }
        }
        let (c, h) = sc.dt_mins();
        Ok((sc.error(), c, h))
    }
}

impl Rank {
    /// `run` ([`exchange`], [`send`] or [`recv_apply`]) of `kind` as a
    /// graph stage body.
    fn stage(
        self: &Arc<Self>,
        kind: Halo,
        run: fn(Halo, &Domain, &HaloPlan, &RankNet, ObsCtx) -> Result<(), ParcelError>,
    ) -> impl Fn() + Send + Sync + 'static {
        let r = Arc::clone(self);
        move || {
            if r.failed.lock().is_some() {
                return;
            }
            let obs = r.trace.as_ref().map(|(t, lane)| (t.as_ref(), *lane));
            if let Err(e) = run(kind, &r.d, &r.halo, &r.net, obs) {
                *r.failed.lock() = Some(e);
            }
        }
    }

    /// The node phase with the force exchange as stages (the reference's
    /// `CommSBN` between gather and update): the boundary nodes' gathers
    /// feed the send, the receive-and-combine runs while the interior
    /// gathers are still in flight, and one join precedes the node update.
    /// The send never blocks on the network (transport sends are
    /// buffered), so a one-worker rank cannot deadlock on its own receive.
    fn node_phase(
        self: &Arc<Self>,
        b: &mut StepBuilder,
        phase: &Phase,
        part: usize,
        start: Option<NodeId>,
        chained: bool,
    ) -> NodeId {
        let node = &phase.chains[0];
        let gather = Chain::new("node-gather", &node.kernels[..1], node.merged);
        let update = Chain::new("node-update", &node.kernels[1..], node.merged);
        // The boundary runs are sorted and disjoint; the gaps between them
        // are the interior.
        let (mut boundary, mut interior, mut pos) = (Vec::new(), Vec::new(), 0);
        for run in self.halo.boundary_runs() {
            interior.extend(chunks_in(pos..run.start, part));
            boundary.extend(chunks_in(run.clone(), part));
            pos = run.end;
        }
        interior.extend(chunks_in(pos..self.d.num_node(), part));
        let boundary = gather.emit(b, &boundary, start, chained);
        let mut joined = gather.emit(b, &interior, start, chained);
        let gathered = b.sync("barrier-gather", &boundary);
        let sent = b.stage("send-forces", &[gathered], self.stage(Halo::Forces, send));
        let recv = self.stage(Halo::Forces, recv_apply);
        joined.push(b.stage("recv-forces", &[sent], recv));
        let joined = b.sync("barrier-halo", &joined);
        let all: Vec<Chunk> = chunks_of(self.d.num_node(), part).collect();
        let updated = update.emit(b, &all, Some(joined), chained);
        b.sync(phase.sync, &updated)
    }
}

/// A task rank: its runtime, its step graph — [`StepPlan::tasks`] with the
/// halo exchanges its phases mark ([`Phase::halo`]) as stages — and the
/// scratch the graph's tasks share.
struct TaskRank {
    task: TaskLulesh,
    graph: StepGraph,
    sc: Arc<StepScratch>,
}

impl TaskRank {
    /// `threads` workers, recording on the rank's worker lanes when
    /// `plan.trace` has them, and the rank's graph split by `partition`.
    fn new(r: &Arc<Rank>, threads: usize, partition: PartitionPlan, plan: &RunPlan) -> Self {
        let lanes = plan.exec.worker_lanes(r.net.rank, r.net.ranks);
        let task = match plan.trace.clone().filter(|t| t.lanes() >= lanes.end) {
            Some(t) => TaskLulesh::with_tracer(threads, Features::default(), t, lanes.start),
            None => TaskLulesh::new(threads),
        };
        let step = StepPlan::tasks(PlanShape::of(&r.d), task.features);
        let sc = Arc::new(StepScratch::new(&step, threads));
        let chained = task.features.chain_continuations;
        let mut b = StepBuilder::new(&r.d, &sc);
        let mut dep = None;
        for phase in &step.phases {
            let part = partition.of(phase.grain);
            let end = match phase.halo {
                Some(Halo::Forces) => r.node_phase(&mut b, phase, part, dep, chained),
                halo => {
                    let end = step.emit_phase(&mut b, phase, part, dep, chained);
                    match halo {
                        Some(kind) => b.stage(kind.label(), &[end], r.stage(kind, exchange)),
                        None => end,
                    }
                }
            };
            dep = Some(end);
        }
        let graph = task.build(b);
        Self { task, graph, sc }
    }

    /// Run the graph once for a step of `dt`, timed as one `task-graph`
    /// region on the rank's lane.
    fn step(&mut self, r: &Rank, phase: &RankObs, dt: Real) -> Result<StepOut, ParcelError> {
        self.sc.begin_iteration(dt);
        phase.timed("task-graph", SpanKind::Region, || {
            self.task.run_once(&mut self.graph)
        });
        if let Some(e) = r.failed.lock().take() {
            return Err(e);
        }
        let (c, h) = self.sc.dt_mins();
        Ok((self.sc.error(), c, h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fold, World};
    use obs::live::{CollectSink, LiveConfig, LiveSink};

    /// Task ranks of `threads` workers, loops split into `part`-sized
    /// chunks; everything else off.
    fn tasks(threads: usize, part: usize) -> RunPlan {
        RunPlan {
            exec: RankExec::Tasks {
                threads,
                partition: PartitionPlan::fixed(part, part),
            },
            ..RunPlan::default()
        }
    }

    /// Live metrics every `period` steps, collected in memory.
    fn collected(period: u64) -> (Arc<CollectSink>, Option<LiveConfig>) {
        let sink = Arc::new(CollectSink::new());
        let cfg = LiveConfig {
            period,
            sink: Arc::clone(&sink) as Arc<dyn LiveSink>,
            table: false,
        };
        (sink, Some(cfg))
    }

    /// [`run`] with everything off, folded to one result.
    fn run_fold(
        decomp: Decomposition,
        sim: SimArgs,
    ) -> Result<(Vec<Domain>, SimState), LuleshError> {
        fold(run(decomp, sim, &RunPlan::default()))
    }

    #[test]
    fn threaded_matches_lockstep_bitwise() {
        let decomp = Decomposition::new(8, 2);
        let mut world = World::build(decomp, 3, 1, 1, 0);
        let st_lock = world.run(25).unwrap();

        let (domains, st_thr) = run_fold(decomp, SimArgs::new(3, 1, 1, 0, 25)).unwrap();
        assert_eq!(st_lock.cycle, st_thr.cycle);
        assert_eq!(st_lock.time, st_thr.time);
        assert_eq!(st_lock.dtcourant, st_thr.dtcourant);

        for (r, (a, b)) in world.domains.iter().zip(&domains).enumerate() {
            assert_eq!(
                lulesh_core::validate::max_field_difference(a, b),
                0.0,
                "rank {r} must match the lockstep driver bit-for-bit"
            );
        }
    }

    #[test]
    fn in_process_run_honours_the_cli_receive_deadline() {
        // The flags that fail over TCP with a typed timeout must fail the
        // same way over channels: rank 1 stalls 400 ms per step, the
        // receive deadline is 100 ms.
        use lulesh_core::Cli;
        let args = crate::cli::Args::parse(&[
            "--s",
            "6",
            "--i",
            "4",
            "--slow-rank",
            "1:400",
            "--recv-deadline-ms",
            "100",
            "--q",
        ])
        .unwrap();
        let results = run(Decomposition::new(6, 2), args.sim(), &args.plan);
        for (r, res) in results.iter().enumerate() {
            assert!(
                matches!(res, Err(MdError::Net(_))),
                "rank {r}: expected a typed transport failure, got {:?}",
                res.as_ref().map(|(_, st)| st.cycle)
            );
        }
    }

    #[test]
    fn threaded_three_ranks() {
        let decomp = Decomposition::new(6, 3);
        let (domains, st) = run_fold(decomp, SimArgs::new(2, 1, 1, 0, 15)).unwrap();
        assert_eq!(domains.len(), 3);
        assert_eq!(st.cycle, 15);
        // Compare against the single-domain solution.
        let single = lulesh_core::Domain::build(6, 2, 1, 1, 0);
        lulesh_core::serial::run(&single, 15).unwrap();
        let mut world = World::build(decomp, 2, 1, 1, 0);
        world.domains = domains;
        let diff = world.max_difference_vs_single(&single);
        assert!(diff < 1e-7, "threaded vs single: {diff}");
    }

    #[test]
    fn traced_run_matches_untraced_and_emits_rank_spans() {
        let decomp = Decomposition::new(6, 2);
        let (base, st_base) = run_fold(decomp, SimArgs::new(2, 1, 1, 0, 8)).unwrap();

        let tracer = Tracer::shared(2);
        let (traced, st_traced) = fold(run(
            decomp,
            SimArgs::new(2, 1, 1, 0, 8),
            &RunPlan {
                trace: Some(Arc::clone(&tracer)),
                ..RunPlan::default()
            },
        ))
        .unwrap();
        assert_eq!(st_base.cycle, st_traced.cycle);
        for (a, b) in base.iter().zip(&traced) {
            assert_eq!(lulesh_core::validate::max_field_difference(a, b), 0.0);
        }

        let spans = tracer.drain();
        // 8 iterations × 2 ranks of dt-allreduce barriers.
        let barriers = spans.iter().filter(|s| s.kind == SpanKind::Barrier).count();
        assert_eq!(barriers, 16);
        // Two-rank ring: every rank exchanged forces and gradients.
        for rank in 0..2 {
            for label in ["halo-forces", "halo-gradients"] {
                let n = spans
                    .iter()
                    .filter(|s| s.kind == SpanKind::Halo && s.label == label && s.worker == rank)
                    .count();
                assert_eq!(n, 8, "rank {rank} {label}");
            }
            // The transport layer's inner comm spans: one send and one recv
            // per exchange on a 2-rank ring.
            for label in ["send-force", "recv-force", "send-gradient", "recv-gradient"] {
                let n = spans
                    .iter()
                    .filter(|s| s.kind == SpanKind::Halo && s.label == label && s.worker == rank)
                    .count();
                assert_eq!(n, 8, "rank {rank} {label}");
            }
        }
        // Iteration spans only on rank 0's lane.
        let iters: Vec<_> = spans.iter().filter(|s| s.label == "iteration").collect();
        assert_eq!(iters.len(), 8);
        assert!(iters.iter().all(|s| s.worker == 0));
    }

    #[test]
    fn grid_threaded_matches_lockstep_bitwise() {
        // Full 2×2×2 rank grid: faces, edges and corners all exchange.
        let decomp = crate::Decomposition::with_grid(6, crate::Grid3::new(2, 2, 2));
        let mut world = World::build(decomp, 2, 1, 1, 0);
        let st_lock = world.run(12).unwrap();
        let (domains, st_thr) = run_fold(decomp, SimArgs::new(2, 1, 1, 0, 12)).unwrap();
        assert_eq!(st_lock.cycle, st_thr.cycle);
        assert_eq!(st_lock.dtcourant, st_thr.dtcourant);
        for (r, (a, b)) in world.domains.iter().zip(&domains).enumerate() {
            assert_eq!(
                lulesh_core::validate::max_field_difference(a, b),
                0.0,
                "rank {r} must match the lockstep grid world bit-for-bit"
            );
        }
    }

    #[test]
    fn grid_tcp_loopback_matches_channel_bitwise() {
        let decomp = crate::Decomposition::with_grid(4, crate::Grid3::new(2, 2, 1));
        let (base, st_base) = run_fold(decomp, SimArgs::new(2, 1, 1, 0, 8)).unwrap();
        let results = run_transport(
            decomp,
            TransportKind::TcpLoopback,
            Duration::from_secs(10),
            SimArgs::new(2, 1, 1, 0, 8),
            None,
            FaultPlan::NONE,
        );
        for (r, (base_d, res)) in base.iter().zip(results).enumerate() {
            let (d, st) = res.unwrap_or_else(|e| panic!("rank {r}: {e}"));
            assert_eq!(st.cycle, st_base.cycle);
            assert_eq!(
                lulesh_core::validate::max_field_difference(base_d, &d),
                0.0,
                "rank {r}: TCP wire must be bit-transparent on a grid"
            );
        }
    }

    #[test]
    fn threaded_single_rank_degenerates_to_serial() {
        let (domains, st) =
            run_fold(Decomposition::new(5, 1), SimArgs::new(2, 1, 1, 0, 10)).unwrap();
        let single = lulesh_core::Domain::build(5, 2, 1, 1, 0);
        let st_s = lulesh_core::serial::run(&single, 10).unwrap();
        assert_eq!(st.cycle, st_s.cycle);
        assert_eq!(
            lulesh_core::validate::max_field_difference(&domains[0], &single),
            0.0
        );
    }

    /// The span *census* — how many spans of each (kind, label, lane) a
    /// traced run records — must not depend on the wire. Channel and TCP
    /// place their instrumentation symmetrically (wait + recv + send per
    /// frame), so the only transport-specific spans are the TCP writer
    /// thread's `parcel-serialize-*` intervals, which are excluded here.
    #[test]
    fn traced_cross_transport_equivalence_span_counts() {
        use std::collections::BTreeMap;
        let ranks = 3;
        let census = |kind: TransportKind| {
            let tracer = obs::Tracer::shared(2 * ranks);
            let results = run_transport(
                Decomposition::new(6, ranks),
                kind,
                Duration::from_secs(10),
                SimArgs::new(2, 1, 1, 0, 6),
                Some(Arc::clone(&tracer)),
                FaultPlan::NONE,
            );
            for r in results {
                r.expect("rank failed");
            }
            let mut m: BTreeMap<(obs::SpanKind, &'static str, usize), usize> = BTreeMap::new();
            for s in tracer.drain() {
                if s.label.starts_with("parcel-serialize-") {
                    continue;
                }
                *m.entry((s.kind, s.label, s.worker)).or_insert(0) += 1;
            }
            m
        };
        let chan = census(TransportKind::Channel);
        let tcp = census(TransportKind::TcpLoopback);
        assert!(
            chan.keys().any(|(k, ..)| *k == obs::SpanKind::Parcel),
            "traced run must record parcel spans"
        );
        assert_eq!(chan, tcp, "span census must be identical across transports");
    }

    /// Acceptance gate for the live plane: an injected slow rank must be
    /// flagged by rank 0's online detector within 5 steps. And the live
    /// categories partition each rank's time — a halo or barrier phase
    /// adds only its time outside transport receives, which the links
    /// already added as `wait` — so a rank's Σ phases never exceeds the
    /// run's wall time, even when it spends most of each step blocked
    /// behind the straggler.
    #[test]
    fn straggler_detector_flags_injected_slow_rank_within_five_steps() {
        let (sink, live) = collected(1);
        let faults = FaultPlan {
            slow_rank: Some((1, 25)),
            ..FaultPlan::NONE
        };
        let t0 = std::time::Instant::now();
        let results = run(
            Decomposition::new(6, 2),
            SimArgs::new(2, 1, 1, 0, 8),
            &RunPlan {
                deadline: Duration::from_secs(10),
                faults,
                live,
                ..RunPlan::default()
            },
        );
        let wall = t0.elapsed().as_nanos() as f64;
        for r in results {
            r.expect("slow rank must not fail the run");
        }

        let lines = sink.lines();
        let last = obs::jsonlint::parse(lines.last().expect("live lines")).unwrap();
        for entry in last.get("per_rank").and_then(|p| p.arr()).unwrap() {
            let Some(obs::jsonlint::Value::Obj(phases)) = entry.get("phases") else {
                panic!("per_rank entry without phases");
            };
            let sum: f64 = phases.iter().filter_map(|(_, ns)| ns.num()).sum();
            assert!(
                sum <= wall,
                "rank {:?}: phases sum to {sum} ns inside a {wall} ns run: {phases:?}",
                entry.get("rank").and_then(|r| r.num())
            );
        }
        assert_eq!(lines.len(), 8, "period 1 over 8 cycles");
        let flagged_at = lines.iter().position(|l| {
            let v = obs::jsonlint::parse(l).expect("live line must be valid JSON");
            v.get("stragglers")
                .and_then(|s| s.arr())
                .is_some_and(|a| a.iter().any(|x| x.num() == Some(1.0)))
        });
        assert!(
            matches!(flagged_at, Some(i) if i < 5),
            "rank 1 must be flagged within 5 steps, first flag at {flagged_at:?}"
        );
        // Every line carries full per-rank summaries and a sane imbalance.
        for l in &lines {
            let v = obs::jsonlint::parse(l).unwrap();
            assert_eq!(
                v.get("per_rank").and_then(|p| p.arr()).map(|a| a.len()),
                Some(2)
            );
            assert!(v.get("imbalance").and_then(|x| x.num()).unwrap() >= 1.0);
        }
    }

    /// A traced + live run, period 1, over 2 channel ranks: the spans
    /// and the JSONL lines of [`run`], plus each rank's lane spans
    /// recorded before its last summary was sampled (which happens as the
    /// last `barrier-dt` span opens).
    fn traced_live_run() -> (Vec<obs::Span>, Vec<String>, Vec<Vec<obs::Span>>) {
        let ranks = 2;
        let (sink, live) = collected(1);
        let tracer = Tracer::shared(ranks);
        let plan = RunPlan {
            trace: Some(Arc::clone(&tracer)),
            live,
            ..RunPlan::default()
        };
        fold(run(
            Decomposition::new(6, ranks),
            SimArgs::new(2, 1, 1, 0, 6),
            &plan,
        ))
        .unwrap();
        let spans = tracer.drain();
        let sampled = (0..ranks)
            .map(|rank| {
                let last_barrier = spans
                    .iter()
                    .filter(|s| s.worker == rank && s.label == "barrier-dt")
                    .map(|s| s.start_ns)
                    .max()
                    .unwrap();
                spans
                    .iter()
                    .filter(|s| s.worker == rank && s.start_ns < last_barrier)
                    .copied()
                    .collect()
            })
            .collect();
        (spans, sink.lines(), sampled)
    }

    /// The live summary is read from the span record: the bytes and
    /// parcels a rank's parcel spans carry before its last sample are
    /// exactly the counters of the last JSONL line.
    #[test]
    fn traced_send_bytes_match_the_live_counters() {
        let (_, lines, sampled) = traced_live_run();
        let last = obs::jsonlint::parse(lines.last().expect("live lines")).unwrap();
        let per_rank = last.get("per_rank").and_then(|p| p.arr()).unwrap();
        assert_eq!(per_rank.len(), sampled.len());
        for (rank, (entry, spans)) in per_rank.iter().zip(&sampled).enumerate() {
            let of =
                |prefix: &'static str| spans.iter().filter(move |s| s.label.starts_with(prefix));
            let sent: u64 = of("parcel-send-").map(|s| s.bytes).sum();
            let recvd: u64 = of("parcel-recv-").map(|s| s.bytes).sum();
            let parcels = of("parcel-send-").count() + of("parcel-recv-").count();
            assert!(sent > 0 && recvd > 0, "rank {rank} traced no frames");
            let field = |key: &str| entry.get(key).and_then(|b| b.num());
            assert_eq!(field("sent_bytes"), Some(sent as f64), "rank {rank}");
            assert_eq!(field("recv_bytes"), Some(recvd as f64), "rank {rank}");
            assert_eq!(field("parcels"), Some(parcels as f64), "rank {rank}");
        }
    }

    /// The live phases are the trace analysis's attribution: for each
    /// rank, the last JSONL line's phases equal one
    /// [`obs::dist::attribute`] sweep over that rank's lane spans up to
    /// the sample — `pack` (halo bookkeeping), `startup` (the clock sync)
    /// and every other category included.
    #[test]
    fn live_phases_match_the_trace_analysis() {
        use obs::dist::{attribute, categorize, Category};
        let (_, lines, sampled) = traced_live_run();
        let last = obs::jsonlint::parse(lines.last().expect("live lines")).unwrap();
        let per_rank = last.get("per_rank").and_then(|p| p.arr()).unwrap();
        for (rank, (entry, spans)) in per_rank.iter().zip(&sampled).enumerate() {
            let lane: Vec<(u64, u64, Category)> = spans
                .iter()
                .filter_map(|s| Some((s.start_ns, s.end_ns, categorize(s.kind.name(), s.label)?)))
                .collect();
            let first = lane.iter().map(|s| s.0).min().unwrap();
            let end = lane.iter().map(|s| s.1).max().unwrap();
            let want = attribute(&lane, (first, end), |_, _, _, _| {});
            let phases = entry.get("phases").expect("phases");
            for cat in Category::ALL {
                let live = phases
                    .get(cat.name())
                    .and_then(|ns| ns.num())
                    .unwrap_or(0.0);
                assert_eq!(live, want.get(cat) as f64, "rank {rank} {}", cat.name());
            }
            for cat in [
                Category::Busy,
                Category::Pack,
                Category::Wait,
                Category::Startup,
            ] {
                assert!(want.get(cat) > 0, "rank {rank}: no {} time", cat.name());
            }
        }
    }

    /// A fault-plan death leaves its post-mortem in the trace: the
    /// survivor's typed failure as a `parcel-error-*` span, and both
    /// ranks' phase spans up to the failure.
    #[test]
    fn fault_death_leaves_error_and_phase_spans_in_the_trace() {
        let tracer = Tracer::shared(2);
        let results = run(
            Decomposition::new(6, 2),
            SimArgs::new(2, 1, 1, 0, 10),
            &RunPlan {
                deadline: Duration::from_secs(2),
                trace: Some(Arc::clone(&tracer)),
                faults: FaultPlan {
                    die_at: vec![(1, 3)],
                    ..FaultPlan::NONE
                },
                ..RunPlan::default()
            },
        );
        assert!(
            results.iter().all(|r| matches!(r, Err(MdError::Net(_)))),
            "both the dying rank and the survivor must report a typed failure"
        );
        let spans = tracer.drain();
        assert!(
            spans
                .iter()
                .any(|s| s.worker == 0 && s.label.starts_with("parcel-error-") && s.dur_ns() == 0),
            "the survivor must record its typed failure"
        );
        for rank in 0..2 {
            let forces = spans
                .iter()
                .filter(|s| s.worker == rank && s.label == "forces")
                .count();
            assert!(
                forces >= 3,
                "rank {rank}: one forces span per completed cycle"
            );
        }
    }

    #[test]
    fn w4_runs_match_scalar_lockstep_across_transports() {
        // `--simd w4` must be invisible to the physics everywhere: a
        // 4-lane multidomain run — over in-process channels AND over real
        // loopback sockets — stays bit-identical to the scalar lockstep
        // reference. Safe to flip the global width mid-suite: every width
        // is bit-identical by construction, so concurrent tests only ever
        // change speed.
        use lulesh_core::simd::{self, LaneWidth};
        let prior = simd::active();
        let decomp = Decomposition::new(6, 2);

        simd::set_active(LaneWidth::W1);
        let mut world = World::build(decomp, 2, 1, 1, 0);
        let st_lock = world.run(10).unwrap();

        simd::set_active(LaneWidth::W4);
        let chan = run_fold(decomp, SimArgs::new(2, 1, 1, 0, 10));
        let tcp = run_transport(
            decomp,
            TransportKind::TcpLoopback,
            Duration::from_secs(10),
            SimArgs::new(2, 1, 1, 0, 10),
            None,
            FaultPlan::NONE,
        );
        simd::set_active(prior);

        let (chan_domains, st_chan) = chan.unwrap();
        assert_eq!(st_lock.cycle, st_chan.cycle);
        assert_eq!(st_lock.dtcourant, st_chan.dtcourant);
        for (r, (a, b)) in world.domains.iter().zip(&chan_domains).enumerate() {
            assert_eq!(
                lulesh_core::validate::max_field_difference(a, b),
                0.0,
                "rank {r}: w4 channel run must match the scalar lockstep"
            );
        }
        for (r, (a, res)) in world.domains.iter().zip(tcp).enumerate() {
            let (d, st) = res.unwrap_or_else(|e| panic!("rank {r}: {e}"));
            assert_eq!(st.cycle, st_lock.cycle);
            assert_eq!(
                lulesh_core::validate::max_field_difference(a, &d),
                0.0,
                "rank {r}: w4 TCP run must match the scalar lockstep"
            );
        }
    }

    #[test]
    fn tcp_loopback_matches_channel_bitwise() {
        let decomp = Decomposition::new(6, 2);
        let (base, st_base) = run_fold(decomp, SimArgs::new(2, 1, 1, 0, 10)).unwrap();
        let results = run_transport(
            decomp,
            TransportKind::TcpLoopback,
            Duration::from_secs(10),
            SimArgs::new(2, 1, 1, 0, 10),
            None,
            FaultPlan::NONE,
        );
        for (r, (base_d, res)) in base.iter().zip(results).enumerate() {
            let (d, st) = res.unwrap_or_else(|e| panic!("rank {r}: {e}"));
            assert_eq!(st.cycle, st_base.cycle);
            assert_eq!(
                lulesh_core::validate::max_field_difference(base_d, &d),
                0.0,
                "rank {r}: TCP wire must be bit-transparent"
            );
        }
    }

    #[test]
    fn task_ranks_match_lockstep_bitwise() {
        let decomp = Decomposition::new(8, 2);
        let mut world = World::build(decomp, 3, 1, 1, 0);
        let st_lock = world.run(20).unwrap();

        let (domains, st) = fold(run(decomp, SimArgs::new(3, 1, 1, 0, 20), &tasks(2, 32))).unwrap();
        assert_eq!(st_lock.cycle, st.cycle);
        assert_eq!(st_lock.time, st.time);
        assert_eq!(st_lock.dtcourant, st.dtcourant);
        for (r, (a, b)) in world.domains.iter().zip(&domains).enumerate() {
            assert_eq!(
                lulesh_core::validate::max_field_difference(a, b),
                0.0,
                "rank {r}: task-parallel ranks must match the lockstep world bit-for-bit"
            );
        }
    }

    #[test]
    fn three_task_ranks_single_worker_each() {
        let decomp = Decomposition::new(6, 3);
        let (domains, st) = fold(run(decomp, SimArgs::new(2, 1, 1, 0, 12), &tasks(1, 16))).unwrap();
        assert_eq!(domains.len(), 3);
        assert_eq!(st.cycle, 12);
        let mut world = World::build(decomp, 2, 1, 1, 0);
        world.run(12).unwrap();
        for (a, b) in world.domains.iter().zip(&domains) {
            assert_eq!(lulesh_core::validate::max_field_difference(a, b), 0.0);
        }
    }

    #[test]
    fn single_task_rank_is_plain_task_port() {
        let (domains, st) = fold(run(
            Decomposition::new(6, 1),
            SimArgs::new(2, 1, 1, 0, 10),
            &tasks(2, 32),
        ))
        .unwrap();
        let single = Arc::new(lulesh_core::Domain::build(6, 2, 1, 1, 0));
        let plain = TaskLulesh::new(2);
        let st_p = plain
            .run(&single, PartitionPlan::fixed(32, 32), 10)
            .unwrap();
        assert_eq!(st.cycle, st_p.cycle);
        assert_eq!(
            lulesh_core::validate::max_field_difference(&domains[0], &single),
            0.0
        );
    }

    #[test]
    fn grid_task_ranks_match_lockstep_bitwise() {
        // 2×2×1 rank grid with the overlapped force stages: the boundary
        // chunks cover two face planes plus the shared edge; scheduling
        // must not change the ascending-rank combine arithmetic. Also a
        // regression test for the fused acceleration BC: ranks off the
        // global x=0/y=0 planes must not zero accelerations on their
        // interface planes.
        let decomp = Decomposition::with_grid(4, crate::Grid3::new(2, 2, 1));
        let mut world = World::build(decomp, 2, 1, 1, 0);
        world.run(10).unwrap();
        let results = run(decomp, SimArgs::new(2, 1, 1, 0, 10), &tasks(2, 16));
        for (r, (a, res)) in world.domains.iter().zip(results).enumerate() {
            let (b, st) = res.unwrap_or_else(|e| panic!("rank {r}: {e}"));
            assert_eq!(st.cycle, 10);
            assert_eq!(
                lulesh_core::validate::max_field_difference(a, &b),
                0.0,
                "rank {r}: grid overlap must not change physics"
            );
        }
    }

    #[test]
    fn full_grid_task_ranks_match_lockstep_on_both_transports_and_widths() {
        // 2×2×2: faces, edges and corners all exchange from graph stages.
        let decomp = Decomposition::with_grid(6, crate::Grid3::new(2, 2, 2));
        let mut world = World::build(decomp, 2, 1, 1, 0);
        world.run(8).unwrap();
        for kind in [TransportKind::Channel, TransportKind::TcpLoopback] {
            for workers in [1, 2] {
                let plan = RunPlan {
                    transport: kind,
                    ..tasks(workers, 16)
                };
                let results = run(decomp, SimArgs::new(2, 1, 1, 0, 8), &plan);
                for (r, (a, res)) in world.domains.iter().zip(results).enumerate() {
                    let (b, st) = res.unwrap_or_else(|e| panic!("{kind:?} rank {r}: {e}"));
                    assert_eq!(st.cycle, 8);
                    assert_eq!(
                        lulesh_core::validate::max_field_difference(a, &b),
                        0.0,
                        "{kind:?}, {workers} workers, rank {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn task_rank_live_metrics_do_not_change_physics_and_emit_jsonl() {
        let decomp = Decomposition::new(6, 2);
        let mut world = World::build(decomp, 2, 1, 1, 0);
        world.run(8).unwrap();

        let (sink, live) = collected(2);
        let results = run(
            decomp,
            SimArgs::new(2, 1, 1, 0, 8),
            &RunPlan {
                live,
                ..tasks(2, 16)
            },
        );
        for (r, (a, res)) in world.domains.iter().zip(results).enumerate() {
            let (b, st) = res.unwrap_or_else(|e| panic!("rank {r}: {e}"));
            assert_eq!(st.cycle, 8);
            assert_eq!(
                lulesh_core::validate::max_field_difference(a, &b),
                0.0,
                "rank {r}: live sampling must not change physics"
            );
        }
        let lines = sink.lines();
        assert_eq!(lines.len(), 4, "period 2 over 8 cycles");
        for l in &lines {
            let v = obs::jsonlint::parse(l).expect("live line must be valid JSON");
            assert_eq!(
                v.get("per_rank").and_then(|p| p.arr()).map(|x| x.len()),
                Some(2)
            );
        }
    }

    #[test]
    fn overlapped_forces_stay_bit_identical() {
        // The overlap changes scheduling, not arithmetic: identical results
        // with single- and multi-worker ranks, including on a deliberately
        // deadlock-prone configuration (1 worker per rank: the send task
        // must never wait on the recv).
        let decomp = Decomposition::new(6, 3);
        let mut world = World::build(decomp, 2, 1, 1, 0);
        world.run(12).unwrap();
        for workers in [1usize, 2] {
            let results = run(decomp, SimArgs::new(2, 1, 1, 0, 12), &tasks(workers, 16));
            for (r, (a, res)) in world.domains.iter().zip(results).enumerate() {
                let (b, st) = res.unwrap_or_else(|e| panic!("workers {workers} rank {r}: {e}"));
                assert_eq!(st.cycle, 12);
                assert_eq!(
                    lulesh_core::validate::max_field_difference(a, &b),
                    0.0,
                    "workers {workers} rank {r}: overlap must not change physics"
                );
            }
        }
    }

    /// A traced run of two 2-worker task ranks, over a tracer with a lane
    /// for every worker: the folded result and every span recorded.
    fn traced_task_run(cycles: u64) -> (Vec<Domain>, SimState, Vec<obs::Span>) {
        let plan = tasks(2, 16);
        let tracer = Tracer::shared(plan.exec.trace_lanes(2));
        let (domains, st) = fold(run(
            Decomposition::new(6, 2),
            SimArgs::new(2, 1, 1, 0, cycles),
            &RunPlan {
                trace: Some(Arc::clone(&tracer)),
                ..plan
            },
        ))
        .unwrap();
        (domains, st, tracer.drain())
    }

    #[test]
    fn traced_task_ranks_match_untraced() {
        let decomp = Decomposition::new(6, 2);
        let (base, st_base) =
            fold(run(decomp, SimArgs::new(2, 1, 1, 0, 8), &tasks(2, 16))).unwrap();
        let (traced, st_traced, _) = traced_task_run(8);
        assert_eq!(st_base.cycle, st_traced.cycle);
        assert_eq!(st_base.time, st_traced.time);
        for (r, (a, b)) in base.iter().zip(&traced).enumerate() {
            assert_eq!(
                lulesh_core::validate::max_field_difference(a, b),
                0.0,
                "rank {r}: tracing must not change task-rank physics"
            );
        }
    }

    #[test]
    fn traced_task_ranks_record_one_exchange_set_and_barrier_per_cycle() {
        let cycles = 6;
        let (_, _, spans) = traced_task_run(cycles as u64);
        let exec = tasks(2, 16).exec;
        let tasks: Vec<_> = spans.iter().filter(|s| s.kind == SpanKind::Task).collect();
        assert!(
            tasks.iter().all(|s| s.worker >= 4),
            "worker tasks must stay off every protocol and writer lane"
        );
        for rank in 0..2 {
            let workers = exec.worker_lanes(rank, 2);
            let count = |label: &str, on_rank_lanes: bool| {
                spans
                    .iter()
                    .filter(|s| s.label == label)
                    .filter(|s| match on_rank_lanes {
                        true => s.worker == rank,
                        false => workers.contains(&s.worker),
                    })
                    .count()
            };
            assert_eq!(count("barrier-dt", true), cycles, "rank {rank}");
            for stage in ["send-forces", "recv-forces", "halo-gradients"] {
                assert_eq!(count(stage, false), cycles, "rank {rank} {stage}");
            }
            assert!(
                tasks.iter().any(|s| workers.contains(&s.worker)),
                "rank {rank}: its workers record its tasks"
            );
        }
    }

    #[test]
    fn survivors_of_a_death_record_the_same_barriers_on_either_executor() {
        // The fault fires at the top of the step on both executors, so a
        // survivor completes the same number of dt allreduces.
        let barriers = |exec: RankExec| {
            let tracer = Tracer::shared(exec.trace_lanes(3));
            let results = run(
                Decomposition::new(6, 3),
                SimArgs::new(2, 1, 1, 0, 10),
                &RunPlan {
                    deadline: Duration::from_secs(2),
                    trace: Some(Arc::clone(&tracer)),
                    faults: FaultPlan {
                        die_at: vec![(1, 3)],
                        ..FaultPlan::NONE
                    },
                    exec,
                    ..RunPlan::default()
                },
            );
            assert!(results.iter().all(|r| matches!(r, Err(MdError::Net(_)))));
            let spans = tracer.drain();
            [0, 2].map(|rank| {
                spans
                    .iter()
                    .filter(|s| s.worker == rank && s.label == "barrier-dt")
                    .count()
            })
        };
        let serial = barriers(RankExec::Serial);
        assert_eq!(serial, [3, 3], "three cycles complete before the death");
        assert_eq!(barriers(tasks(2, 16).exec), serial);
    }
}
