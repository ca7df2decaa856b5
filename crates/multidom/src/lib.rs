//! # multidom — multi-domain LULESH (the paper's future work)
//!
//! The paper closes with: *"In future work, our LULESH implementation
//! could be extended to run on multi-node environments and compared to an
//! MPI-based implementation."* This crate implements that extension: the
//! global Sedov cube is decomposed over a full 3-D rank grid
//! ([`Grid3`] — ζ slabs are the `1×1×N` special case), each rank an
//! independent [`Domain`] sub-brick with COMM boundary flags and ghost
//! regions, advanced in lockstep with halo exchanges at exactly the three
//! points the reference's MPI version communicates: nodal mass (setup),
//! nodal forces (per iteration), and monotonic-q velocity gradients (per
//! iteration) — plus the dt min-allreduce. Each rank exchanges with up to
//! 26 neighbours (6 faces, 12 edges, 8 corners; see [`exchange`]).
//!
//! Two drivers with **bit-identical** results:
//!
//! * [`World::run`] — lockstep: ranks advance phase by phase in one
//!   thread (the deterministic reference for testing).
//! * [`threaded::run`] — one OS thread per rank exchanging halo messages
//!   over a [`parcelnet`] transport, MPI-style; [`threaded::run_rank`] is
//!   the same rank loop for one rank of a multi-process job.
//!
//! The rank loop takes one [`RunPlan`] (transport, deadline, tracing,
//! faults, telemetry, checkpoints; all off by default) and owns everything
//! around a step: bootstrap, subdomain build, fault check, checkpoints and
//! the dt/telemetry reduction. [`RunPlan::exec`] picks how a rank computes
//! the step in between, and either way the rank runs the task driver's
//! step list (`StepPlan::tasks`) with its exchanges where the plan marks
//! them: walked in order on the rank's thread, or — the paper's
//! anticipated "HPX-native multi-node" configuration — as one task graph
//! per rank whose halo exchanges are stages of the graph ([`RankExec`]).
//! Only [`World::step`], the lockstep reference, spells the step out by
//! hand.
//! [`recovery::run_with_recovery`] reruns [`threaded::run`] from
//! checkpoints after a rank death.
//!
//! The decomposed solution matches the single-domain solution up to
//! floating-point regrouping on the boundary surfaces (the force sum is
//! associated differently); duplicated boundary nodes stay bit-identical
//! *across ranks* throughout the run.

#![warn(missing_docs)]

pub mod cli;
pub mod exchange;
pub mod recovery;
pub mod threaded;

use exchange::{HaloPlan, ObsCtx};
use lulesh_core::domain::Domain;
use lulesh_core::kernels::constraints;
use lulesh_core::mesh::MeshShape;
use lulesh_core::params::SimState;
use lulesh_core::plan::Halo;
use lulesh_core::serial::{
    advance_nodes, apply_q_and_materials, calc_force_for_nodes, calc_kinematics_and_gradients,
    SerialScratch,
};
use lulesh_core::timestep::time_increment;
use lulesh_core::types::{LuleshError, Real};
use lulesh_task::PartitionPlan;
use obs::live::{jsonl_step_line, LaneSampler, LiveConfig, StepSummary, StragglerDetector};
use obs::{SpanKind, Tracer};
use parcelnet::tcp::TcpConfig;
use parcelnet::{dir, NeighborSpec, ParcelError, ParcelObs, RankNet};
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

/// A 3-D rank grid: `nx × ny × nz` ranks, numbered ξ-fastest
/// (`rank = ix + nx·(iy + ny·iz)`). The ζ-slab chain is `1×1×N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grid3 {
    /// Ranks along ξ.
    pub nx: usize,
    /// Ranks along η.
    pub ny: usize,
    /// Ranks along ζ.
    pub nz: usize,
}

impl Grid3 {
    /// Create a grid; every extent must be at least 1.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        assert!(nx >= 1 && ny >= 1 && nz >= 1, "grid extents must be >= 1");
        Self { nx, ny, nz }
    }

    /// Total rank count.
    pub fn ranks(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Grid coordinates of rank `r`.
    pub fn coords(&self, r: usize) -> (usize, usize, usize) {
        assert!(r < self.ranks());
        (
            r % self.nx,
            (r / self.nx) % self.ny,
            r / (self.nx * self.ny),
        )
    }

    /// Rank at grid coordinates `(ix, iy, iz)`.
    pub fn rank_at(&self, ix: usize, iy: usize, iz: usize) -> usize {
        assert!(ix < self.nx && iy < self.ny && iz < self.nz);
        ix + self.nx * (iy + self.ny * iz)
    }

    /// Rank `r`'s neighbours as `(neighbour rank, direction toward it)`,
    /// sorted by direction — one entry per in-grid direction among the 26.
    pub fn neighbors(&self, r: usize) -> Vec<(usize, usize)> {
        let (ix, iy, iz) = self.coords(r);
        let mut out = Vec::new();
        for d in 0..dir::COUNT {
            if d == dir::SELF_INDEX {
                continue;
            }
            let (dx, dy, dz) = dir::components(d);
            let (jx, jy, jz) = (
                ix as i64 + dx as i64,
                iy as i64 + dy as i64,
                iz as i64 + dz as i64,
            );
            let inside = |j: i64, n: usize| j >= 0 && (j as usize) < n;
            if inside(jx, self.nx) && inside(jy, self.ny) && inside(jz, self.nz) {
                out.push((self.rank_at(jx as usize, jy as usize, jz as usize), d));
            }
        }
        out
    }

    /// Every rank's neighbour list in the [`NeighborSpec`] form the
    /// transports bootstrap from.
    pub fn neighbor_specs(&self) -> Vec<Vec<NeighborSpec>> {
        (0..self.ranks())
            .map(|r| {
                self.neighbors(r)
                    .into_iter()
                    .map(|(rank, d)| NeighborSpec { rank, dir: d as u8 })
                    .collect()
            })
            .collect()
    }
}

/// A 3-D grid decomposition of the global cube into sub-bricks. Fields are
/// private so the divisibility invariant established by the constructors
/// cannot be bypassed (a brick with a dangling COMM face would silently
/// produce wrong physics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decomposition {
    size: usize,
    grid: Grid3,
}

impl Decomposition {
    /// The classic ζ-slab chain: `ranks` slabs along ζ (must divide
    /// `size`). Equivalent to `with_grid(size, Grid3::new(1, 1, ranks))`.
    pub fn new(size: usize, ranks: usize) -> Self {
        assert!(ranks >= 1, "need at least one rank");
        assert_eq!(size % ranks, 0, "ranks must divide the problem size");
        Self::with_grid(size, Grid3::new(1, 1, ranks))
    }

    /// Decompose over an arbitrary rank grid; every grid extent must
    /// divide `size`.
    pub fn with_grid(size: usize, grid: Grid3) -> Self {
        assert_eq!(size % grid.nx, 0, "ranks must divide the problem size");
        assert_eq!(size % grid.ny, 0, "ranks must divide the problem size");
        assert_eq!(size % grid.nz, 0, "ranks must divide the problem size");
        Self { size, grid }
    }

    /// Global cube edge in elements.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The rank grid.
    pub fn grid(&self) -> Grid3 {
        self.grid
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.grid.ranks()
    }

    /// Per-rank sub-brick extents.
    fn local(&self) -> (usize, usize, usize) {
        (
            self.size / self.grid.nx,
            self.size / self.grid.ny,
            self.size / self.grid.nz,
        )
    }

    /// The mesh shape of rank `r`.
    pub fn shape(&self, r: usize) -> MeshShape {
        let (lx, ly, lz) = self.local();
        let (ix, iy, iz) = self.grid.coords(r);
        MeshShape::brick(
            (lx, ly, lz),
            (self.size, self.size, self.size),
            (ix * lx, iy * ly, iz * lz),
        )
    }

    /// All rank shapes, in rank order.
    pub fn shapes(&self) -> Vec<MeshShape> {
        (0..self.ranks()).map(|r| self.shape(r)).collect()
    }

    /// Rank `r`'s grid neighbours as `(rank, direction)` pairs.
    pub fn neighbors(&self, r: usize) -> Vec<(usize, usize)> {
        self.grid.neighbors(r)
    }

    /// The global element index of rank `r`'s local element `e`.
    pub fn global_elem(&self, r: usize, e: usize) -> usize {
        let s = self.shape(r);
        let (ex, ey, ez) = (e % s.nx, (e / s.nx) % s.ny, e / (s.nx * s.ny));
        (s.x_offset + ex) + self.size * ((s.y_offset + ey) + self.size * (s.z_offset + ez))
    }

    /// The global node index of rank `r`'s local node `n`.
    pub fn global_node(&self, r: usize, n: usize) -> usize {
        let s = self.shape(r);
        let (rn, pn) = (s.nx + 1, (s.nx + 1) * (s.ny + 1));
        let (nx, ny, nz) = (n % rn, (n / rn) % (s.ny + 1), n / pn);
        let gn = self.size + 1;
        (s.x_offset + nx) + gn * ((s.y_offset + ny) + gn * (s.z_offset + nz))
    }
}

/// Transport selection for the message-passing drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// In-process crossbeam channels (the historical wire; zero copies
    /// leave process memory).
    #[default]
    Channel,
    /// Real TCP sockets over 127.0.0.1 — full parcelnet framing,
    /// checksums and handshakes, still inside one process.
    TcpLoopback,
}

/// Multi-domain driver failure: either the simulation aborted (and every
/// rank agreed on it via the dt allreduce), or the transport itself failed
/// (a peer died, a deadline passed, a frame was corrupt).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MdError {
    /// Simulation abort (volume/qstop) — identical on every rank.
    Sim(LuleshError),
    /// Transport failure — typed, names the peer.
    Net(parcelnet::ParcelError),
    /// Checkpoint/snapshot failure — a missing, truncated, or corrupt
    /// snapshot surfaced while checkpointing or resuming.
    Snapshot(resil::SnapshotError),
}

impl std::fmt::Display for MdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MdError::Sim(e) => write!(f, "simulation abort: {e:?}"),
            MdError::Net(e) => write!(f, "transport failure: {e}"),
            MdError::Snapshot(e) => write!(f, "snapshot failure: {e}"),
        }
    }
}

impl std::error::Error for MdError {}

impl From<LuleshError> for MdError {
    fn from(e: LuleshError) -> Self {
        MdError::Sim(e)
    }
}

impl From<parcelnet::ParcelError> for MdError {
    fn from(e: parcelnet::ParcelError) -> Self {
        MdError::Net(e)
    }
}

impl From<resil::SnapshotError> for MdError {
    fn from(e: resil::SnapshotError) -> Self {
        MdError::Snapshot(e)
    }
}

/// Simulation arguments shared by every rank of a transport run.
#[derive(Debug, Clone, Copy)]
pub struct SimArgs {
    /// Number of material regions.
    pub num_reg: usize,
    /// Region cost balance knob.
    pub balance: i32,
    /// Region cost multiplier.
    pub cost: i32,
    /// Region RNG seed.
    pub seed: u64,
    /// Iteration cap.
    pub max_cycles: u64,
    /// Control parameters applied to every rank's domain.
    pub params: lulesh_core::Params,
}

impl SimArgs {
    /// Defaults matching the classic driver signatures.
    pub fn new(num_reg: usize, balance: i32, cost: i32, seed: u64, max_cycles: u64) -> Self {
        Self {
            num_reg,
            balance,
            cost,
            seed,
            max_cycles,
            params: lulesh_core::Params::default(),
        }
    }
}

/// Fault injection for failure testing (all fields default to "no fault").
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Poison this rank's mid-domain element volume after build, forcing a
    /// `VolumeError` in its first iteration.
    pub poison_volume: Option<usize>,
    /// `(rank, cycle)` kill list: each listed rank dies abruptly once that
    /// many cycles are complete — its links drop without a `Bye`, as a
    /// killed process would. The `--respawn` launcher consumes one entry
    /// per recovery attempt; a single run honours every entry it reaches.
    pub die_at: Vec<(usize, u64)>,
    /// The rank is killed *before the TCP handshake*: it never dials the
    /// bootstrap, so the survivors' accepts and dials must time out with a
    /// typed error within the configured deadline (the in-process channel
    /// mesh has no handshake to kill).
    pub die_at_handshake: Option<usize>,
    /// `(rank, millis)`: the rank sleeps that long at the top of every
    /// step — a controlled straggler for exercising the live telemetry
    /// detector.
    pub slow_rank: Option<(usize, u64)>,
}

impl FaultPlan {
    /// No faults.
    pub const NONE: FaultPlan = FaultPlan {
        poison_volume: None,
        die_at: Vec::new(),
        die_at_handshake: None,
        slow_rank: None,
    };

    /// The one kill live in attempt `attempt` (0-based) of a restarted job
    /// resuming after `resume_cycle`: only `die_at[attempt]` — each
    /// incarnation of the job dies at most once, like a re-launched fleet —
    /// and not even that when it is at or before the resume cycle, where it
    /// is an unreachable replay. [`recovery::restart`], the loop of the
    /// `--respawn` launcher and of [`recovery::run_with_recovery`], injects
    /// exactly this.
    pub fn attempt_kill(&self, attempt: usize, resume_cycle: Option<u64>) -> Option<(usize, u64)> {
        let live = |&(_, c): &(usize, u64)| resume_cycle.is_none_or(|rc| c > rc);
        self.die_at.get(attempt).copied().filter(live)
    }

    /// The faults striking `rank` once `cycle` cycles are complete — the
    /// rank loop's one check per step, at the top of the step. A listed
    /// death returns `PeerClosed` naming the rank itself (the caller drops
    /// its links without a `Bye`, as a killed process would); a straggler
    /// sleeps.
    pub(crate) fn inject(&self, rank: usize, cycle: u64) -> Result<(), ParcelError> {
        if self.die_at.contains(&(rank, cycle)) {
            return Err(ParcelError::PeerClosed { peer: rank });
        }
        if let Some((r, ms)) = self.slow_rank {
            if r == rank {
                std::thread::sleep(Duration::from_millis(ms));
            }
        }
        Ok(())
    }
}

/// Checkpoint/resume wiring for the message-passing drivers. Default:
/// fully off — zero cost on the hot path.
#[derive(Debug, Clone, Default)]
pub struct ResilPlan {
    /// Periodic checkpointing: every rank hands an encoded
    /// [`resil::DomainSnapshot`] to an async writer thread every
    /// `period` cycles (top of the loop, before fault injection).
    pub ckpt: Option<resil::CkptConfig>,
    /// Resume from the checkpoint wave at this cycle: every rank loads
    /// its snapshot from `ckpt.dir` instead of starting at cycle 0
    /// (requires `ckpt`).
    pub resume_cycle: Option<u64>,
}

/// The default per-receive deadline for the message-passing drivers.
pub const DEFAULT_DEADLINE: Duration = Duration::from_secs(10);

/// How each rank computes a step between the rank loop's fault check and
/// its dt allreduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RankExec {
    /// `StepPlan::tasks` walked in order on the rank's thread, each chain
    /// over its whole space, with a blocking halo exchange wherever the
    /// plan marks one (`Phase::halo`): the forces between the node chain's
    /// gather and its update, the gradients after `barrier-kinematics`.
    #[default]
    Serial,
    /// One task graph per rank, built once from `StepPlan::tasks` and run
    /// once per step on `threads` workers, its loops split by `partition`.
    /// The halo exchanges are stages of the graph: the boundary nodes'
    /// gathers feed the force send, whose receive-and-combine runs while
    /// the interior gathers are still in flight; one join precedes the
    /// node update, and the gradient exchange follows
    /// `barrier-kinematics`.
    Tasks {
        /// Workers per rank.
        threads: usize,
        /// Partition sizes of the rank's loops.
        partition: PartitionPlan,
    },
}

impl RankExec {
    /// The lanes rank `rank`'s task workers record on (empty for serial
    /// ranks): past every rank's protocol lane `r` and TCP writer lane
    /// `ranks + r`, one block of workers per rank.
    pub fn worker_lanes(&self, rank: usize, ranks: usize) -> Range<usize> {
        let workers = match self {
            RankExec::Serial => 0,
            RankExec::Tasks { threads, .. } => *threads,
        };
        2 * ranks + rank * workers..2 * ranks + (rank + 1) * workers
    }

    /// Tracer lanes a traced job of `ranks` ranks records on: through the
    /// last rank's [`worker_lanes`](Self::worker_lanes).
    pub fn trace_lanes(&self, ranks: usize) -> usize {
        self.worker_lanes(ranks - 1, ranks).end
    }
}

/// How a message-passing run executes, beyond the problem itself: the one
/// parameter set of [`threaded::run`], [`threaded::run_rank`] and
/// [`recovery::run_with_recovery`]. The default is all off — serial ranks,
/// in-process channels, [`DEFAULT_DEADLINE`], untraced, no faults, no
/// telemetry, no checkpoints.
#[derive(Clone)]
pub struct RunPlan {
    /// The wire between in-process ranks (ignored by
    /// [`threaded::run_rank`], which is handed a connected net).
    pub transport: TransportKind,
    /// Bounds every receive, the TCP handshake included — and therefore
    /// how long any rank can outlive a dead neighbour.
    pub deadline: Duration,
    /// Span tracing: rank `r` records its phases, halo exchanges and dt
    /// barrier on lane `r` (see [`threaded::run_rank`]), and a task rank's
    /// workers record their tasks on [`RankExec::worker_lanes`] when the
    /// tracer has [`RankExec::trace_lanes`] lanes. A rank that fails keeps
    /// every span up to the failure, including a zero-length
    /// `parcel-error-*` span for each typed transport failure it saw.
    pub trace: Option<Arc<Tracer>>,
    /// Fault injection.
    pub faults: FaultPlan,
    /// Live metrics: on telemetry steps every rank samples its own span
    /// record ([`obs::live::LaneSampler`]) and ships the encoded
    /// [`obs::live::StepSummary`] to rank 0 inside the dt allreduce (no
    /// extra sync point); rank 0 runs the online straggler detector and
    /// emits JSONL on the sink. Without `trace`, each rank records into a
    /// private tracer its sampler drains.
    pub live: Option<LiveConfig>,
    /// Checkpoint/resume.
    pub resil: ResilPlan,
    /// How each rank computes a step.
    pub exec: RankExec,
}

impl Default for RunPlan {
    fn default() -> Self {
        Self {
            transport: TransportKind::Channel,
            deadline: DEFAULT_DEADLINE,
            trace: None,
            faults: FaultPlan::NONE,
            live: None,
            resil: ResilPlan::default(),
            exec: RankExec::Serial,
        }
    }
}

/// Every rank's endpoint for `decomp` over `plan.transport`: the
/// in-process channel mesh, or a loopback TCP bootstrap (rank 0 listens,
/// the others dial, one bootstrap thread per rank). The rank named by
/// `plan.faults.die_at_handshake` never dials: its own slot is
/// `PeerClosed` and the survivors' accepts and dials time out within
/// `plan.deadline`.
fn connect(decomp: Decomposition, plan: &RunPlan) -> Vec<Result<RankNet, ParcelError>> {
    let (ranks, deadline) = (decomp.ranks(), plan.deadline);
    let specs = decomp.grid().neighbor_specs();
    if plan.transport == TransportKind::Channel {
        return parcelnet::channel::channel_mesh_with(&specs, deadline)
            .into_iter()
            .map(Ok)
            .collect();
    }
    let cfg = TcpConfig {
        deadline,
        connect_timeout: deadline,
    };
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
    let addr = listener
        .local_addr()
        .expect("loopback listener address")
        .to_string();
    let mut listener = Some(listener);
    let (specs, cfg, addr) = (&specs, &cfg, &addr);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..ranks)
            .map(|r| {
                let listener = listener.take();
                std::thread::Builder::new()
                    .name(format!("multidom-bootstrap-{r}"))
                    .spawn_scoped(s, move || {
                        if plan.faults.die_at_handshake == Some(r) {
                            return Err(ParcelError::PeerClosed { peer: r });
                        }
                        match listener {
                            Some(l) => parcelnet::tcp::root(l, ranks, &specs[r], cfg),
                            None => parcelnet::tcp::join(addr, r, ranks, &specs[r], cfg),
                        }
                    })
                    .expect("spawn bootstrap thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("bootstrap must not panic"))
            .collect()
    })
}

/// Fold per-rank outcomes into the single-result form: the first
/// simulation abort wins. A transport or snapshot failure panics — neither
/// can happen on the in-process wire without fault injection or
/// checkpointing, and callers that use those look at each rank.
pub fn fold<D>(
    results: Vec<Result<(D, SimState), MdError>>,
) -> Result<(Vec<D>, SimState), LuleshError> {
    let mut domains = Vec::with_capacity(results.len());
    let mut state = None;
    for r in results {
        match r {
            Ok((d, st)) => {
                state = Some(st);
                domains.push(d);
            }
            Err(MdError::Sim(e)) => return Err(e),
            Err(MdError::Net(n)) => panic!("transport failure without fault injection: {n}"),
            Err(MdError::Snapshot(s)) => panic!("snapshot failure without checkpointing: {s}"),
        }
    }
    Ok((domains, state.expect("at least one rank")))
}

/// One rank's recorder: a single [`ParcelObs`] hook on every link, a
/// phase timer, the dt allreduce with the step summary riding along, and —
/// on rank 0 with live metrics on — the straggler detector streaming
/// JSONL. Everything it records is a span; the live summary is sampled
/// from them. With tracing and metrics off there is no tracer, no hook,
/// and every method is a `None` check around the plain call.
pub(crate) struct RankObs {
    rank: usize,
    /// The tracer and the lane this rank's protocol spans go on.
    tracer: Option<(Arc<Tracer>, usize)>,
    /// Live metrics and the sampler reading this rank's lane.
    live: Option<(LiveConfig, Mutex<LaneSampler>)>,
    detector: Option<Mutex<StragglerDetector>>,
}

impl RankObs {
    /// Build the recorder `plan` asks for on `net`'s rank and attach it to
    /// every link. Traced, protocol spans go on lane `rank` of
    /// `plan.trace` and TCP writer-thread spans on lane `ranks + rank` when
    /// the tracer has that many lanes. Live-only, the rank records into a
    /// private two-lane tracer (protocol lane 0, writer lane 1) that its
    /// sampler drains every telemetry step, so it never holds more than
    /// one sampling window of spans.
    pub(crate) fn attach(plan: &RunPlan, net: &RankNet) -> Self {
        let (rank, ranks) = (net.rank, net.ranks);
        let hook = match (&plan.trace, &plan.live) {
            (Some(t), _) if t.lanes() >= 2 * ranks => Some((Arc::clone(t), rank, ranks + rank)),
            (Some(t), _) => Some((Arc::clone(t), rank, rank)),
            (None, Some(_)) => Some((Tracer::shared(2), 0, 1)),
            (None, None) => None,
        };
        if let Some((t, lane, aux)) = &hook {
            net.attach_obs(&ParcelObs::new(Arc::clone(t), *lane, *aux));
        }
        let tracer = hook.map(|(t, lane, _)| (t, lane));
        let owned = plan.trace.is_none();
        let live = plan
            .live
            .clone()
            .zip(tracer.as_ref())
            .map(|(cfg, (t, lane))| {
                (
                    cfg,
                    Mutex::new(LaneSampler::new(Arc::clone(t), *lane, owned)),
                )
            });
        let detector =
            (rank == 0 && plan.live.is_some()).then(|| Mutex::new(StragglerDetector::new(ranks)));
        Self {
            rank,
            tracer,
            live,
            detector,
        }
    }

    /// The tracer and this rank's lane on it, when recording.
    pub(crate) fn ctx(&self) -> ObsCtx<'_> {
        self.tracer.as_ref().map(|(t, lane)| (t.as_ref(), *lane))
    }

    /// The clock at the top of a step (`None` with metrics off).
    pub(crate) fn mark(&self) -> Option<u64> {
        self.live.as_ref().and(self.ctx()).map(|(t, _)| t.now_ns())
    }

    /// Run `f` as phase `label`: a `kind` span on the rank's lane.
    pub(crate) fn timed<T>(&self, label: &'static str, kind: SpanKind, f: impl FnOnce() -> T) -> T {
        let Some((t, lane)) = self.ctx() else {
            return f();
        };
        let start = t.now_ns();
        let out = f();
        t.record_interval(lane, kind, label, start, t.now_ns());
        out
    }

    /// The dt min-allreduce that ends step `cycle` (1-based, agreed by
    /// every rank), with simulation errors riding along. On telemetry
    /// steps this rank's summary of the step that began at `since` — self
    /// time: wall minus `wait`, so a rank stalled behind a slow neighbour
    /// does not look slow itself — travels on the same parcels; rank 0
    /// decodes the summaries, runs the straggler detector and streams one
    /// JSONL line.
    pub(crate) fn allreduce_dt(
        &self,
        net: &RankNet,
        cycle: u64,
        since: Option<u64>,
        c: Real,
        h: Real,
        err: Option<LuleshError>,
    ) -> Result<(Real, Real, Option<LuleshError>), ParcelError> {
        let telemetry = match (&self.live, since) {
            (Some((cfg, s)), Some(since)) if cfg.telemetry_step(cycle) => {
                Some(s.lock().sample(self.rank as u32, cycle, since).encode())
            }
            _ => None,
        };
        let (gc, gh, gerr, collected) = net.allreduce_dt_live(c, h, err, telemetry.as_deref())?;
        if let (Some(det), Some((cfg, _)), Some(collected)) =
            (&self.detector, &self.live, collected)
        {
            let summaries: Vec<StepSummary> = collected
                .iter()
                .filter_map(|p| StepSummary::decode(p))
                .collect();
            if summaries.len() == net.ranks {
                let step_ns: Vec<u64> = summaries.iter().map(|s| s.step_ns).collect();
                let flagged = det.lock().observe(&step_ns);
                cfg.sink.emit(&jsonl_step_line(cycle, &summaries, &flagged));
            }
        }
        Ok((gc, gh, gerr))
    }

    /// Close out the rank: a successful rank 0 prints the straggler table
    /// when asked.
    pub(crate) fn finish<T>(&self, result: &Result<T, MdError>) {
        if let (Ok(_), Some(det), Some((cfg, _))) = (result, &self.detector, &self.live) {
            if cfg.table {
                eprint!("{}", det.lock().summary_table());
            }
        }
    }
}

/// The lockstep multi-domain world.
pub struct World {
    /// One subdomain per rank, in rank order.
    pub domains: Vec<Domain>,
    /// The decomposition the world was built with.
    pub decomp: Decomposition,
    plans: Vec<HaloPlan>,
    scratches: Vec<SerialScratch>,
}

impl World {
    /// Build all subdomains and perform the one-time nodal-mass exchange.
    pub fn build(
        decomp: Decomposition,
        num_reg: usize,
        balance: i32,
        cost: i32,
        seed: u64,
    ) -> Self {
        let domains: Vec<Domain> = decomp
            .shapes()
            .into_iter()
            .map(|shape| Domain::build_subdomain(shape, num_reg, balance, cost, seed))
            .collect();
        let plans: Vec<HaloPlan> = (0..decomp.ranks())
            .map(|r| HaloPlan::new(decomp.shape(r), r, &decomp.neighbors(r)))
            .collect();
        exchange::lockstep(Halo::Mass, &domains, &plans);
        let scratches = domains
            .iter()
            .map(|d| SerialScratch::new(d.num_elem()))
            .collect();
        Self {
            domains,
            decomp,
            plans,
            scratches,
        }
    }

    /// Advance the whole world one `LagrangeLeapFrog` iteration.
    ///
    /// The multi-domain oracle: it calls `lulesh_core::serial`'s phase
    /// functions by hand instead of walking a `StepPlan`, so the plan-driven
    /// ranks of [`threaded`] are checked against code that shares no step
    /// list with them.
    pub fn step(&mut self, state: &mut SimState) -> Result<(), LuleshError> {
        let dt = state.deltatime;

        // Phase 1: element forces on every rank, then halo-sum the
        // boundary-surface forces (CommSBN).
        for (d, s) in self.domains.iter().zip(&mut self.scratches) {
            calc_force_for_nodes(d, s)?;
        }
        exchange::lockstep(Halo::Forces, &self.domains, &self.plans);

        // Phase 2: node state advance (boundary nodes compute identical
        // values on every sharing rank — same forces, same masses).
        for d in &self.domains {
            advance_nodes(d, dt);
        }

        // Phase 3: kinematics + gradients, then ghost-region exchange
        // (CommMonoQ).
        for d in &self.domains {
            calc_kinematics_and_gradients(d, dt)?;
        }
        exchange::lockstep(Halo::Gradients, &self.domains, &self.plans);

        // Phase 4: q limiter, EOS, volume commit.
        for (d, s) in self.domains.iter().zip(&mut self.scratches) {
            apply_q_and_materials(d, s)?;
        }

        // dt constraints: min-allreduce across ranks.
        let mut dtcourant: Real = 1.0e20;
        let mut dthydro: Real = 1.0e20;
        for d in &self.domains {
            let (c, h) = constraints::calc_time_constraints(d, d.params.qqc, d.params.dvovmax);
            dtcourant = dtcourant.min(c);
            dthydro = dthydro.min(h);
        }
        state.dtcourant = dtcourant;
        state.dthydro = dthydro;
        Ok(())
    }

    /// Run for at most `max_cycles` iterations (or to `stoptime`).
    pub fn run(&mut self, max_cycles: u64) -> Result<SimState, LuleshError> {
        let params = self.domains[0].params;
        let mut state = SimState::new(self.domains[0].initial_dt());
        while state.time < params.stoptime && state.cycle < max_cycles {
            time_increment(&mut state, &params);
            self.step(&mut state)?;
        }
        Ok(state)
    }

    /// Maximum absolute difference of all physics fields against a
    /// single-domain solution of the same global problem. Boundary nodes
    /// are compared on every owning rank.
    pub fn max_difference_vs_single(&self, single: &Domain) -> Real {
        let mut max: Real = 0.0;
        for (r, d) in self.domains.iter().enumerate() {
            for e in 0..d.num_elem() {
                let g = self.decomp.global_elem(r, e);
                max = max.max((d.e(e) - single.e(g)).abs());
                max = max.max((d.p(e) - single.p(g)).abs());
                max = max.max((d.q(e) - single.q(g)).abs());
                max = max.max((d.v(e) - single.v(g)).abs());
                max = max.max((d.ss(e) - single.ss(g)).abs());
            }
            for n in 0..d.num_node() {
                let g = self.decomp.global_node(r, n);
                max = max.max((d.x(n) - single.x(g)).abs());
                max = max.max((d.y(n) - single.y(g)).abs());
                max = max.max((d.z(n) - single.z(g)).abs());
                max = max.max((d.xd(n) - single.xd(g)).abs());
                max = max.max((d.yd(n) - single.yd(g)).abs());
                max = max.max((d.zd(n) - single.zd(g)).abs());
            }
        }
        max
    }

    /// Maximum absolute mismatch of duplicated boundary-node state across
    /// every pair of adjacent ranks — faces, edges and corners alike (must
    /// be exactly zero: every sharer computes identical values).
    pub fn interface_mismatch(&self) -> Real {
        let mut max: Real = 0.0;
        for (r, plan) in self.plans.iter().enumerate() {
            let d = &self.domains[r];
            for link in plan.links() {
                if link.rank < r {
                    continue; // each pair checked once
                }
                let nd = &self.domains[link.rank];
                let theirs = exchange::dir_nodes(&nd.shape(), dir::opposite(link.dir));
                for (&a, &b) in link.nodes.iter().zip(&theirs) {
                    max = max.max((d.x(a) - nd.x(b)).abs());
                    max = max.max((d.xd(a) - nd.xd(b)).abs());
                    max = max.max((d.y(a) - nd.y(b)).abs());
                    max = max.max((d.yd(a) - nd.yd(b)).abs());
                    max = max.max((d.z(a) - nd.z(b)).abs());
                    max = max.max((d.zd(a) - nd.zd(b)).abs());
                }
            }
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lulesh_core::serial;

    #[test]
    fn one_rank_world_is_bitwise_the_single_domain() {
        let mut world = World::build(Decomposition::new(6, 1), 3, 1, 1, 0);
        let single = Domain::build(6, 3, 1, 1, 0);
        let st_w = world.run(15).unwrap();
        let st_s = serial::run(&single, 15).unwrap();
        assert_eq!(st_w.cycle, st_s.cycle);
        assert_eq!(st_w.time, st_s.time);
        assert_eq!(world.max_difference_vs_single(&single), 0.0);
    }

    #[test]
    fn two_ranks_match_single_domain_closely() {
        let mut world = World::build(Decomposition::new(8, 2), 4, 1, 1, 0);
        let single = Domain::build(8, 4, 1, 1, 0);
        // Region decomposition differs per rank (each rank decomposes its
        // own elements), so the material *rep* pattern differs from the
        // single domain — but rep does not change physics, only cost.
        let st_w = world.run(30).unwrap();
        let st_s = serial::run(&single, 30).unwrap();
        assert_eq!(st_w.cycle, st_s.cycle);
        let diff = world.max_difference_vs_single(&single);
        assert!(
            diff < 1e-7,
            "decomposed vs single mismatch {diff} (only boundary-surface \
             force regrouping is allowed)"
        );
    }

    #[test]
    fn four_ranks_match_single_domain() {
        let mut world = World::build(Decomposition::new(8, 4), 2, 1, 1, 0);
        let single = Domain::build(8, 2, 1, 1, 0);
        world.run(20).unwrap();
        serial::run(&single, 20).unwrap();
        let diff = world.max_difference_vs_single(&single);
        assert!(diff < 1e-7, "4-rank mismatch {diff}");
    }

    #[test]
    fn full_grid_matches_single_domain() {
        let decomp = Decomposition::with_grid(6, Grid3::new(2, 2, 2));
        let mut world = World::build(decomp, 2, 1, 1, 0);
        let single = Domain::build(6, 2, 1, 1, 0);
        world.run(20).unwrap();
        serial::run(&single, 20).unwrap();
        let diff = world.max_difference_vs_single(&single);
        assert!(diff < 1e-7, "2×2×2-grid mismatch {diff}");
        assert_eq!(world.interface_mismatch(), 0.0);
    }

    #[test]
    fn transverse_grids_match_single_domain() {
        // ξ-only and η-only decompositions exercise the non-ζ face pairs.
        for grid in [Grid3::new(2, 1, 1), Grid3::new(1, 2, 1)] {
            let decomp = Decomposition::with_grid(6, grid);
            let mut world = World::build(decomp, 2, 1, 1, 0);
            let single = Domain::build(6, 2, 1, 1, 0);
            world.run(20).unwrap();
            serial::run(&single, 20).unwrap();
            let diff = world.max_difference_vs_single(&single);
            assert!(diff < 1e-7, "{grid:?} mismatch {diff}");
        }
    }

    #[test]
    fn minimal_subbricks_match_single_domain() {
        // 1×1×1 sub-bricks: the degenerate size where every node sits on
        // a boundary surface (regression for minimal-size arithmetic).
        let decomp = Decomposition::with_grid(2, Grid3::new(2, 2, 2));
        let mut world = World::build(decomp, 1, 1, 1, 0);
        let single = Domain::build(2, 1, 1, 1, 0);
        world.run(10).unwrap();
        serial::run(&single, 10).unwrap();
        let diff = world.max_difference_vs_single(&single);
        assert!(diff < 1e-7, "1-elem-brick mismatch {diff}");
        assert_eq!(world.interface_mismatch(), 0.0);
    }

    #[test]
    fn live_only_tracer_holds_at_most_one_sampling_window() {
        use obs::live::{CollectSink, LiveSink};
        let sink = Arc::new(CollectSink::new());
        let plan = RunPlan {
            live: Some(LiveConfig {
                period: 2,
                sink: Arc::clone(&sink) as Arc<dyn LiveSink>,
                table: false,
            }),
            ..RunPlan::default()
        };
        let net = parcelnet::channel::channel_mesh(1, DEFAULT_DEADLINE).remove(0);
        let robs = RankObs::attach(&plan, &net);
        let (tracer, lane) = robs.ctx().expect("live metrics record spans");
        assert_eq!((tracer.lanes(), lane), (2, 0), "a private tracer");
        let held = || tracer.lane_since(0, 0).len() + tracer.lane_since(1, 0).len();
        for cycle in 1..=4u64 {
            let since = robs.mark();
            robs.timed("forces", SpanKind::Region, || ());
            robs.timed("eos", SpanKind::Region, || ());
            // Spans pile up only until the telemetry step samples them.
            assert_eq!(held(), if cycle % 2 == 1 { 2 } else { 4 }, "cycle {cycle}");
            robs.allreduce_dt(&net, cycle, since, 1.0, 1.0, None)
                .unwrap();
            assert_eq!(held(), if cycle % 2 == 1 { 2 } else { 0 }, "cycle {cycle}");
        }
        assert_eq!(sink.lines().len(), 2, "period 2 over 4 cycles");
        // Nothing is recorded when neither tracing nor live metrics is on.
        assert!(RankObs::attach(&RunPlan::default(), &net).ctx().is_none());
    }

    #[test]
    fn run_plan_from_cli_maps_every_run_flag() {
        use lulesh_core::Cli;
        let args = cli::Args::parse(&[
            "--recv-deadline-ms=250",
            "--die-at=1:3,0:7",
            "--slow-rank=1:40",
            "--live-metrics=5",
            "--trace-dir=/tmp/md-trace",
            "--ckpt-dir=/tmp/md-ckpt",
            "--ckpt-period=4",
            "--resume-cycle=8",
            "--transport=tcp",
            "--q",
        ])
        .unwrap();
        let plan = args.plan;
        assert_eq!(plan.transport, TransportKind::Channel);
        assert_eq!(plan.deadline, Duration::from_millis(250));
        assert!(plan.trace.is_none());
        assert_eq!(plan.faults.die_at, vec![(1, 3), (0, 7)]);
        assert_eq!(plan.faults.slow_rank, Some((1, 40)));
        assert_eq!(plan.faults.poison_volume, None);
        assert_eq!(plan.faults.die_at_handshake, None);
        let metrics = plan.live.expect("--live-metrics");
        assert_eq!(metrics.period, 5);
        assert!(!metrics.table, "--q silences the straggler table");
        let ckpt = plan.resil.ckpt.expect("--ckpt-dir");
        assert_eq!(ckpt.dir, std::path::PathBuf::from("/tmp/md-ckpt"));
        assert_eq!(ckpt.period, 4);
        assert_eq!(plan.resil.resume_cycle, Some(8));

        // No run flags: the CLI defaults are the all-off plan.
        let plan = cli::Args::parse(&["--s", "6"]).unwrap().plan;
        let off = RunPlan::default();
        assert_eq!(plan.deadline, off.deadline);
        assert_eq!(plan.deadline, DEFAULT_DEADLINE);
        assert!(plan.faults.die_at.is_empty() && plan.faults.slow_rank.is_none());
        assert!(plan.live.is_none());
        assert!(plan.resil.ckpt.is_none() && plan.resil.resume_cycle.is_none());
    }

    #[test]
    fn attempt_kill_is_one_entry_per_attempt_and_drops_replays() {
        let faults = FaultPlan {
            die_at: vec![(2, 40), (1, 30), (0, 50)],
            ..FaultPlan::NONE
        };
        // Attempt a injects only die_at[a]; a cold (re)start keeps it.
        assert_eq!(faults.attempt_kill(0, None), Some((2, 40)));
        assert_eq!(faults.attempt_kill(1, None), Some((1, 30)));
        // A kill before the resume cycle, or at it, is an unreachable
        // replay and is dropped; one after it is live.
        assert_eq!(faults.attempt_kill(1, Some(40)), None);
        assert_eq!(faults.attempt_kill(2, Some(50)), None);
        assert_eq!(faults.attempt_kill(2, Some(49)), Some((0, 50)));
        // Past the list no attempt dies.
        assert_eq!(faults.attempt_kill(3, None), None);
    }

    #[test]
    fn interface_nodes_stay_bit_identical_across_ranks() {
        let mut world = World::build(Decomposition::new(8, 2), 3, 1, 1, 0);
        world.run(40).unwrap();
        assert_eq!(
            world.interface_mismatch(),
            0.0,
            "duplicated nodes must not drift"
        );
    }

    #[test]
    fn grid_interface_nodes_stay_bit_identical() {
        let decomp = Decomposition::with_grid(4, Grid3::new(2, 2, 1));
        let mut world = World::build(decomp, 3, 1, 1, 0);
        world.run(30).unwrap();
        assert_eq!(world.interface_mismatch(), 0.0);
    }

    #[test]
    fn mass_is_conserved_across_the_decomposition() {
        for grid in [Grid3::new(1, 1, 3), Grid3::new(2, 2, 2)] {
            let size = 6;
            let decomp = Decomposition::with_grid(size, grid);
            let world = World::build(decomp, 2, 1, 1, 0);
            // Sum nodal masses counting every global node once.
            let mut seen = std::collections::BTreeSet::new();
            let mut total: Real = 0.0;
            for (r, d) in world.domains.iter().enumerate() {
                for n in 0..d.num_node() {
                    if seen.insert(decomp.global_node(r, n)) {
                        total += d.nodal_mass(n);
                    }
                }
            }
            let extent = lulesh_core::params::MESH_EXTENT;
            assert!(
                (total - extent * extent * extent).abs() < 1e-9,
                "{grid:?}: total mass {total}"
            );
        }
    }

    #[test]
    fn energy_deposited_once() {
        let decomp = Decomposition::with_grid(6, Grid3::new(2, 2, 2));
        let world = World::build(decomp, 2, 1, 1, 0);
        let with_energy: usize = world
            .domains
            .iter()
            .map(|d| (0..d.num_elem()).filter(|&e| d.e(e) != 0.0).count())
            .sum();
        assert_eq!(
            with_energy, 1,
            "exactly one element carries the blast energy"
        );
        assert!(world.domains[0].e(0) > 0.0);
        assert_eq!(world.domains[1].e(0), 0.0);
    }

    #[test]
    fn decomposition_validations() {
        let d = Decomposition::new(12, 3);
        assert_eq!(d.shape(0).nz, 4);
        assert_eq!(d.shape(2).z_offset, 8);
        assert_eq!(d.global_elem(1, 0), 4 * 12 * 12);
        assert_eq!(d.global_node(2, 5), 8 * 13 * 13 + 5);

        let g = Decomposition::with_grid(12, Grid3::new(2, 3, 2));
        let s = g.shape(g.grid().rank_at(1, 2, 1));
        assert_eq!((s.nx, s.ny, s.nz), (6, 4, 6));
        assert_eq!((s.x_offset, s.y_offset, s.z_offset), (6, 8, 6));
        // Global indices round-trip through brick coordinates.
        assert_eq!(g.global_elem(0, 0), 0);
        let r = g.grid().rank_at(1, 0, 0);
        assert_eq!(g.global_elem(r, 0), 6);
        assert_eq!(g.global_node(r, 0), 6);
    }

    #[test]
    fn grid_neighbors_are_symmetric_and_complete() {
        let grid = Grid3::new(2, 3, 2);
        for r in 0..grid.ranks() {
            let (ix, iy, iz) = grid.coords(r);
            assert_eq!(grid.rank_at(ix, iy, iz), r);
            for (nr, d) in grid.neighbors(r) {
                let back = grid.neighbors(nr);
                assert!(
                    back.contains(&(r, dir::opposite(d))),
                    "rank {nr} must link back to {r}"
                );
            }
        }
        // A corner rank of 2×2×2 sees 7 neighbours; the full 26 only
        // appears for interior ranks (3×3×3 centre).
        assert_eq!(Grid3::new(2, 2, 2).neighbors(0).len(), 7);
        let g3 = Grid3::new(3, 3, 3);
        assert_eq!(g3.neighbors(g3.rank_at(1, 1, 1)).len(), 26);
    }

    #[test]
    #[should_panic(expected = "ranks must divide")]
    fn indivisible_decomposition_rejected() {
        let _ = Decomposition::new(7, 2);
    }

    #[test]
    #[should_panic(expected = "ranks must divide")]
    fn indivisible_grid_axis_rejected() {
        let _ = Decomposition::with_grid(6, Grid3::new(4, 1, 1));
    }
}
