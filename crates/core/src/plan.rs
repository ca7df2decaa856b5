//! The leapfrog step as data: one stage list, three interpreters.
//!
//! A [`StepPlan`] lists one `LagrangeLeapFrog` iteration as ordered
//! [`Phase`]s. A phase is a set of independent [`Chain`]s, each a list of
//! [`Kernel`]s over one index [`Space`], followed by a named sync. Chains of
//! one phase touch disjoint data; a chain's kernels depend on each other only
//! index by index, so any partition of its space may run them back to back.
//!
//! Three interpreters walk the same list, so none of them can drift:
//! - `lulesh-omp` runs one statically split parallel region per stage;
//! - `lulesh-task` turns every chain into task-graph nodes
//!   ([`Chain::emit`], [`StepPlan::emit_phase`]);
//! - `simsched` prices each kernel from its cost model, and its
//!   calibration times each loop of [`StepPlan::reference`] in order.
//!
//! Multi-domain ranks run [`StepPlan::tasks`] too — a serial rank walks it
//! in order on one thread, a task rank as a graph — and read from
//! [`Phase::halo`] where their [`Halo`] exchanges go; the three
//! interpreters above ignore that field.
//!
//! [`StepPlan::reference`] is the OpenMP reference's loop list (two-pass
//! hourglass, the 12-loop EOS ladder); [`StepPlan::tasks`] is the paper's
//! task graph for any [`Features`] combination. The EOS ladder is not
//! spelled out here: the reference's EOS phases are [`eos::ladder`], one
//! [`Kernel::EosLoop`] per loop, each running [`eos::eos_step`] — the one
//! table and one match the scalar EOS body walks too. Two oracles stay
//! hand-written, so that a fault in a plan cannot hide in its own
//! reference: [`crate::serial`] for one domain, and the multi-domain
//! crate's lockstep `World::step`.
//!
//! Bit-identity holds by construction: every interpreter makes the same
//! kernel calls in a dependency order, node sums keep the reference corner
//! order, and the dt reductions are order-independent minima.

use crate::domain::Domain;
use crate::kernels::{constraints, eos, hourglass, kinematics, monoq, nodal, stress};
use crate::slab::{Layout, Plane};
use crate::types::{Index, LuleshError, Real};
use parutil::{chunks_in, chunks_of, AlignedBuf, CachePadded, Chunk, SharedVec};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// Toggles for the paper's optimization tricks (all on by default; the
/// ablation bench switches them off one at a time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Features {
    /// T2: chain kernels per partition via continuations instead of a
    /// global barrier after every kernel.
    pub chain_continuations: bool,
    /// T3: merge consecutive kernels into single task bodies.
    pub merge_kernels: bool,
    /// T4a: run the stress and hourglass force chains concurrently.
    pub parallel_force_chains: bool,
    /// T4b: run the per-region EOS chains concurrently.
    pub parallel_region_eos: bool,
}

impl Default for Features {
    fn default() -> Self {
        Self {
            chain_continuations: true,
            merge_kernels: true,
            parallel_force_chains: true,
            parallel_region_eos: true,
        }
    }
}

impl Features {
    /// The Fig-5 baseline: partitioned tasks but a barrier after every
    /// loop, no merging, no extra concurrency.
    pub fn naive() -> Self {
        Self {
            chain_continuations: false,
            merge_kernels: false,
            parallel_force_chains: false,
            parallel_region_eos: false,
        }
    }
}

/// The index space a chain iterates over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Space {
    /// Elements `0..num_elem`.
    Elems,
    /// Nodes `0..num_node`.
    Nodes,
    /// Positions `0..symm_len` of the three symmetry-plane node lists.
    SymmNodes,
    /// Positions in region `r`'s element list.
    Region(usize),
}

/// Which partition size (a Table I column) a phase's tasks use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grain {
    /// `LagrangeNodal`: force and node-update tasks.
    Nodal,
    /// `LagrangeElements`: kinematics, Q, EOS and constraint tasks.
    Elements,
}

/// Everything a plan needs to know about a mesh: its index-space lengths
/// and the EOS repetition count of each region. Domain-free, so the
/// simulator builds it from a configuration alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanShape {
    /// Element count.
    pub num_elem: usize,
    /// Node count.
    pub num_node: usize,
    /// Longest symmetry-plane node list.
    pub symm_len: usize,
    /// Elements per region.
    pub region_lens: Vec<usize>,
    /// EOS repetitions per region.
    pub reps: Vec<usize>,
}

impl PlanShape {
    /// The shape of `d`.
    pub fn of(d: &Domain) -> Self {
        Self {
            num_elem: d.num_elem(),
            num_node: d.num_node(),
            symm_len: nodal::symm_list_len(d),
            region_lens: d.regions.reg_elem_list.iter().map(Vec::len).collect(),
            reps: (0..d.num_reg()).map(|r| d.regions.rep(r)).collect(),
        }
    }

    /// Length of `space`.
    pub fn len(&self, space: Space) -> usize {
        match space {
            Space::Elems => self.num_elem,
            Space::Nodes => self.num_node,
            Space::SymmNodes => self.symm_len,
            Space::Region(r) => self.region_lens[r],
        }
    }
}

/// One loop body of the step. Region kernels carry their region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Zero the nodal forces.
    ZeroForces,
    /// `InitStressTermsForElems` into the shared `sig*`.
    InitStress,
    /// `IntegrateStressForElems` from the shared `sig*` into the shared
    /// `determ` and the per-corner stress forces.
    IntegrateStress,
    /// Volume-error scan of the shared `determ`.
    CheckVolume,
    /// `IntegrateStressForElems` plus its volume check, `determ` local.
    IntegrateStressChecked,
    /// The whole stress pipeline with local temporaries (T3 + T6).
    Stress,
    /// `CalcHourglassControlForElems` into the shared geometry streams.
    HourglassControl,
    /// `CalcFBHourglassForceForElems` from the shared geometry streams.
    HourglassFb,
    /// Hourglass control and FB force fused per element.
    Hourglass,
    /// Nodal forces = gathered stress forces.
    GatherSet,
    /// Nodal forces += gathered hourglass forces.
    GatherAdd,
    /// Nodal forces = gathered stress + hourglass forces, in one walk.
    GatherSum2,
    /// `CalcAccelerationForNodes`.
    Acceleration,
    /// Symmetry-plane BC over the symmetry lists.
    AccelerationBc,
    /// Symmetry-plane BC over a node range, by index arithmetic.
    AccelerationBcByNode,
    /// `CalcVelocityForNodes`.
    Velocity,
    /// `CalcPositionForNodes`.
    Position,
    /// `CalcKinematicsForElems`.
    Kinematics,
    /// `CalcLagrangeElements`' trailing loop and volume check.
    LagrangeFinish,
    /// `CalcMonotonicQGradientsForElems`.
    MonoqGradients,
    /// `CalcMonotonicQRegionForElems` of a region.
    MonoqRegion(usize),
    /// q-stop scan.
    QStop,
    /// Clamped new relative volumes into the shared `vnewc`.
    VnewcFill,
    /// Old-volume bounds check.
    VnewcCheck,
    /// `EvalEOSForElems` of a region, every repetition, local temporaries.
    Eos(usize),
    /// One loop of a region's reference EOS ladder.
    EosLoop(eos::EosStep, usize),
    /// `UpdateVolumesForElems`.
    UpdateVolumes,
    /// Courant and hydro constraints of a region, folded into the minima.
    Constraints(usize),
}

// The shared arrays of a [`StepScratch`], as bits of [`Kernel::arrays`].
const SIG: u8 = 1;
const DETERM: u8 = 2;
const F_ELEM: u8 = 4;
const F_HG: u8 = 8;
const GEOMETRY: u8 = 16;
const VNEWC: u8 = 32;
const EOS: u8 = 64;

impl Kernel {
    /// The space the kernel iterates over.
    fn space(&self) -> Space {
        use Kernel::*;
        match *self {
            ZeroForces | GatherSet | GatherAdd | GatherSum2 | Acceleration
            | AccelerationBcByNode | Velocity | Position => Space::Nodes,
            AccelerationBc => Space::SymmNodes,
            MonoqRegion(r) | Eos(r) | EosLoop(_, r) | Constraints(r) => Space::Region(r),
            _ => Space::Elems,
        }
    }

    /// The shared scratch arrays the kernel reads or writes.
    fn arrays(&self) -> u8 {
        use Kernel::*;
        match self {
            InitStress => SIG,
            IntegrateStress => SIG | DETERM | F_ELEM,
            CheckVolume => DETERM,
            IntegrateStressChecked => SIG | F_ELEM,
            Stress | GatherSet => F_ELEM,
            HourglassControl => GEOMETRY | DETERM,
            HourglassFb => GEOMETRY | DETERM | F_HG,
            Hourglass | GatherAdd => F_HG,
            GatherSum2 => F_ELEM | F_HG,
            VnewcFill | Eos(_) => VNEWC,
            EosLoop(..) => VNEWC | EOS,
            _ => 0,
        }
    }

    /// Run the kernel over `c`, a chunk of its chain's [`Space`].
    /// `local` is the executing thread's own scratch.
    ///
    /// # Safety
    /// The caller runs the stages of one plan in its order, hands each
    /// chunk of a stage to one thread, and lets no stage of a later phase
    /// start before the earlier phases end. The slices cut from `s` are
    /// then disjoint from every concurrent access: chunk `c` (and its
    /// corners) of every array belongs to this call, and whole-array reads
    /// follow a sync after the array's last write.
    pub unsafe fn run(
        &self,
        d: &Domain,
        s: &StepScratch,
        local: &mut KernelScratch,
        c: Chunk,
        dt: Real,
    ) {
        use Kernel::*;
        let p = &d.params;
        let c8 = corners(c);
        match *self {
            ZeroForces => stress::zero_forces(d, c),
            InitStress => {
                let [sx, sy, sz] = s.cut_mut(s.sig, c);
                stress::init_stress_terms_for_elems(d, sx, sy, sz, c);
            }
            IntegrateStress => {
                let [sx, sy, sz] = s.cut(s.sig, c);
                let [fx, fy, fz] = s.cut_mut(s.f_elem, c8);
                let determ = s.part_mut(s.determ, c);
                stress::integrate_stress_for_elems(d, sx, sy, sz, determ, fx, fy, fz, c);
            }
            CheckVolume => {
                s.flag(stress::check_volume_error(s.part(s.determ, c)));
            }
            // The two kernels with temporaries in `local` take at most
            // `LOCAL_CHUNK` elements per pass, so a whole-space chunk (a
            // serial rank's, a fork-join thread's static share) never grows
            // the slot past that inside the step loop.
            IntegrateStressChecked => {
                for c in chunks_in(c.begin..c.end, LOCAL_CHUNK) {
                    let [sx, sy, sz] = s.cut(s.sig, c);
                    let [fx, fy, fz] = s.cut_mut(s.f_elem, corners(c));
                    local.determ.reset_len(c.len());
                    let determ = &mut local.determ;
                    stress::integrate_stress_for_elems(d, sx, sy, sz, determ, fx, fy, fz, c);
                    s.flag(stress::check_volume_error(determ));
                }
            }
            Stress => {
                for c in chunks_in(c.begin..c.end, LOCAL_CHUNK) {
                    // No clearing: both kernels write all `c.len()` values.
                    let KernelScratch { sig, determ, .. } = &mut *local;
                    for buf in sig.iter_mut().chain([&mut *determ]) {
                        buf.reset_len(c.len());
                    }
                    let [sx, sy, sz] = sig;
                    stress::init_stress_terms_for_elems(d, sx, sy, sz, c);
                    let [fx, fy, fz] = s.cut_mut(s.f_elem, corners(c));
                    stress::integrate_stress_for_elems(d, sx, sy, sz, determ, fx, fy, fz, c);
                    s.flag(stress::check_volume_error(determ));
                }
            }
            HourglassControl => {
                let [dx, dy, dz] = s.cut_mut(s.dvd, c8);
                let [x8, y8, z8] = s.cut_mut(s.xyz8n, c8);
                let determ = s.part_mut(s.determ, c);
                s.flag(hourglass::calc_hourglass_control_for_elems(
                    d, dx, dy, dz, x8, y8, z8, determ, c,
                ));
            }
            HourglassFb if p.hgcoef > 0.0 => {
                let [dx, dy, dz] = s.cut(s.dvd, c8);
                let [x8, y8, z8] = s.cut(s.xyz8n, c8);
                let [fx, fy, fz] = s.cut_mut(s.f_hg, c8);
                let determ = s.part(s.determ, c);
                hourglass::calc_fb_hourglass_force_for_elems(
                    d, determ, x8, y8, z8, dx, dy, dz, p.hgcoef, fx, fy, fz, c,
                );
            }
            Hourglass if p.hgcoef > 0.0 => {
                // The geometry the two-pass kernels stream through
                // memory stays on the stack.
                let [fx, fy, fz] = s.cut_mut(s.f_hg, c8);
                let r = hourglass::calc_hourglass_force_for_elems(d, p.hgcoef, fx, fy, fz, c);
                s.flag(r);
            }
            Hourglass => s.flag(hourglass::check_relative_volumes(d, c)),
            GatherSet => {
                let [fx, fy, fz] = s.cut(s.f_elem, s.f_elem[0].all());
                stress::gather_forces_set(d, fx, fy, fz, c);
            }
            GatherAdd if p.hgcoef > 0.0 => {
                let [fx, fy, fz] = s.cut(s.f_hg, s.f_hg[0].all());
                stress::gather_forces_add(d, fx, fy, fz, c);
            }
            // No hourglass forces when `hgcoef == 0`.
            HourglassFb | GatherAdd => {}
            GatherSum2 => {
                let [ax, ay, az] = s.cut(s.f_elem, s.f_elem[0].all());
                let [bx, by, bz] = s.cut(s.f_hg, s.f_hg[0].all());
                stress::gather_forces_sum2(d, ax, ay, az, bx, by, bz, c);
            }
            Acceleration => nodal::calc_acceleration_for_nodes(d, c),
            AccelerationBc => nodal::apply_acceleration_boundary_conditions(d, c),
            AccelerationBcByNode => nodal::apply_acceleration_bc_by_node_range(d, c),
            Velocity => nodal::calc_velocity_for_nodes(d, dt, p.u_cut, c),
            Position => nodal::calc_position_for_nodes(d, dt, c),
            Kinematics => kinematics::calc_kinematics_for_elems(d, dt, c),
            LagrangeFinish => s.flag(kinematics::calc_lagrange_elements_finish(d, c)),
            MonoqGradients => monoq::calc_monotonic_q_gradients_for_elems(d, c),
            MonoqRegion(r) => monoq::calc_monotonic_q_region_for_elems(d, region(d, r, c), p),
            QStop => s.flag(monoq::check_q_stop(d, p.qstop, c)),
            VnewcFill => {
                let vnewc = s.part_mut(s.vnewc, c);
                eos::fill_vnewc_clamped(d, vnewc, p.eosvmin, p.eosvmax, c);
            }
            VnewcCheck => s.flag(eos::check_eos_volume_bounds(d, p.eosvmin, p.eosvmax, c)),
            Eos(r) => {
                // Only the scalar arm touches `local.eos`; the lane arms
                // keep the whole pipeline in registers.
                let (vnewc, elems) = (s.part(s.vnewc, s.vnewc.all()), region(d, r, c));
                eos::eval_eos_for_elems(d, vnewc, elems, d.regions.rep(r), p, &mut local.eos);
            }
            EosLoop(step, r) => {
                let (vnewc, elems) = (s.part(s.vnewc, s.vnewc.all()), region(d, r, c));
                eos::eos_step(step, d, p, vnewc, elems, s.cut_mut(s.eos, c));
            }
            UpdateVolumes => kinematics::update_volumes_for_elems(d, p.v_cut, c),
            Constraints(r) => {
                let elems = region(d, r, c);
                let courant = constraints::calc_courant_constraint_for_elems(d, elems, p.qqc);
                let hydro = constraints::calc_hydro_constraint_for_elems(d, elems, p.dvovmax);
                lower(&s.dtcourant, courant);
                lower(&s.dthydro, hydro);
            }
        }
    }
}

/// Elements per pass of a kernel whose temporaries live in its thread's
/// [`KernelScratch`]: at most four slot arrays of this length, 64 KiB.
const LOCAL_CHUNK: usize = 2048;

/// The per-corner positions (`8·e + corner`) of the elements of `c`.
fn corners(c: Chunk) -> Chunk {
    Chunk {
        begin: 8 * c.begin,
        end: 8 * c.end,
    }
}

/// Positions `c` of region `r`'s element list.
fn region(d: &Domain, r: usize, c: Chunk) -> &[Index] {
    &d.regions.reg_elem_list[r][c.begin..c.end]
}

/// Fold `v` into the running minimum stored as `f64` bits in `slot`.
fn lower(slot: &AtomicU64, v: Option<Real>) {
    if let Some(v) = v {
        let _ = slot.fetch_update(Relaxed, Relaxed, |cur| {
            (v < Real::from_bits(cur)).then_some(v.to_bits())
        });
    }
}

/// One thread's kernel temporaries (trick T6): the fused stress and EOS
/// kernels keep them out of the shared arrays. Capacities only grow, so a
/// warm slot never allocates.
#[derive(Default)]
pub struct KernelScratch {
    sig: [AlignedBuf<Real>; 3],
    determ: AlignedBuf<Real>,
    eos: eos::EosScratch,
}

/// The state one step shares between kernels: the mesh-length arrays that
/// cross a sync and the region-length arrays of the reference EOS ladder,
/// all planes of one block; the error flags, the dt minima, and one
/// [`KernelScratch`] per thread.
pub struct StepScratch {
    /// The block every array below is a plane of.
    slab: SharedVec<Real>,
    sig: [Plane; 3],
    determ: Plane,
    f_elem: [Plane; 3],
    f_hg: [Plane; 3],
    dvd: [Plane; 3],
    xyz8n: [Plane; 3],
    vnewc: Plane,
    eos: [Plane; eos::EOS_ARRAYS],
    local: SharedVec<CachePadded<KernelScratch>>,
    /// The current iteration's time increment, as `f64` bits.
    dt: AtomicU64,
    volume_error: AtomicBool,
    qstop_error: AtomicBool,
    /// Running `dtcourant` / `dthydro` minima, as `f64` bits.
    dtcourant: AtomicU64,
    dthydro: AtomicU64,
}

impl StepScratch {
    /// Scratch for `plan`, with `threads` local slots. Only the arrays the
    /// plan's kernels use take space: each is a 64-byte-aligned plane of
    /// one block of untouched zero pages, which become resident as the
    /// kernels first write them. At the paper's sizes the block is one
    /// huge-page mapping ([`SharedVec::zeroed`]), so those first writes
    /// fault once per 2 MiB.
    pub fn new(plan: &StepPlan, threads: usize) -> Self {
        let used = plan.kernels().fold(0, |m, k| m | k.arrays());
        let shape = &plan.shape;
        let ne = shape.num_elem;
        let longest_region = shape.region_lens.iter().copied().max().unwrap_or(0);
        let mut layout = Layout::default();
        let mut plane = |bit, n| layout.plane(if used & bit != 0 { n } else { 0 });
        let sig = [(); 3].map(|_| plane(SIG, ne));
        let determ = plane(DETERM, ne);
        let f_elem = [(); 3].map(|_| plane(F_ELEM, 8 * ne));
        let f_hg = [(); 3].map(|_| plane(F_HG, 8 * ne));
        let dvd = [(); 3].map(|_| plane(GEOMETRY, 8 * ne));
        let xyz8n = [(); 3].map(|_| plane(GEOMETRY, 8 * ne));
        let vnewc = plane(VNEWC, ne);
        let eos = [(); eos::EOS_ARRAYS].map(|_| plane(EOS, longest_region));
        let local = (0..threads).map(|_| CachePadded(KernelScratch::default()));
        Self {
            slab: layout.block(),
            sig,
            determ,
            f_elem,
            f_hg,
            dvd,
            xyz8n,
            vnewc,
            eos,
            local: SharedVec::from_vec(local.collect()),
            dt: AtomicU64::new(0),
            volume_error: AtomicBool::new(false),
            qstop_error: AtomicBool::new(false),
            dtcourant: AtomicU64::new(0),
            dthydro: AtomicU64::new(0),
        }
    }

    /// Publish the step's `dt`, clear the error flags and reset the dt
    /// minima. Runs between two iterations, with no kernel in flight.
    ///
    /// Every atomic here is `Relaxed`: each publishes only its own value,
    /// and every store is ordered before its readers by the interpreter's
    /// own synchronization — the pool's region join or the task graph's
    /// edges, which start an iteration after this call and end it before
    /// [`error`](Self::error) and [`dt_mins`](Self::dt_mins) are read.
    pub fn begin_iteration(&self, dt: Real) {
        self.dt.store(dt.to_bits(), Relaxed);
        self.volume_error.store(false, Relaxed);
        self.qstop_error.store(false, Relaxed);
        self.dtcourant.store(1.0e20f64.to_bits(), Relaxed);
        self.dthydro.store(1.0e20f64.to_bits(), Relaxed);
    }

    /// The current iteration's time increment.
    pub fn dt(&self) -> Real {
        Real::from_bits(self.dt.load(Relaxed))
    }

    /// The error a kernel reported this iteration, volume errors first.
    pub fn error(&self) -> Option<LuleshError> {
        if self.volume_error.load(Relaxed) {
            Some(LuleshError::VolumeError)
        } else if self.qstop_error.load(Relaxed) {
            Some(LuleshError::QStopError)
        } else {
            None
        }
    }

    /// This iteration's `(dtcourant, dthydro)` minima.
    pub fn dt_mins(&self) -> (Real, Real) {
        let min = |slot: &AtomicU64| Real::from_bits(slot.load(Relaxed));
        (min(&self.dtcourant), min(&self.dthydro))
    }

    /// Thread `i`'s kernel scratch.
    ///
    /// # Safety
    /// Only one thread may use slot `i` at a time.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn local(&self, i: usize) -> &mut KernelScratch {
        &mut self.local.get_mut(i).0
    }

    /// Chunk `c` of plane `p`, for reading.
    ///
    /// # Safety
    /// No thread may write `c` of `p` meanwhile.
    unsafe fn part(&self, p: Plane, c: Chunk) -> &[Real] {
        assert!(
            c.begin <= c.end && c.end <= p.len,
            "chunk outside its plane"
        );
        self.slab.slice(p.off + c.begin, p.off + c.end)
    }

    /// Chunk `c` of plane `p`, for writing.
    ///
    /// # Safety
    /// No other thread may touch `c` of `p` meanwhile.
    #[allow(clippy::mut_from_ref)]
    unsafe fn part_mut(&self, p: Plane, c: Chunk) -> &mut [Real] {
        assert!(
            c.begin <= c.end && c.end <= p.len,
            "chunk outside its plane"
        );
        self.slab.slice_mut(p.off + c.begin, p.off + c.end)
    }

    /// Chunk `c` of each of `N` planes, for reading (as [`Self::part`]).
    unsafe fn cut<const N: usize>(&self, planes: [Plane; N], c: Chunk) -> [&[Real]; N] {
        planes.map(|p| self.part(p, c))
    }

    /// Chunk `c` of each of `N` planes, for writing (as
    /// [`Self::part_mut`]).
    #[allow(clippy::mut_from_ref)]
    unsafe fn cut_mut<const N: usize>(&self, planes: [Plane; N], c: Chunk) -> [&mut [Real]; N] {
        planes.map(|p| self.part_mut(p, c))
    }

    fn flag(&self, r: Result<(), LuleshError>) {
        match r {
            Ok(()) => {}
            Err(LuleshError::VolumeError) => self.volume_error.store(true, Relaxed),
            Err(LuleshError::QStopError) => self.qstop_error.store(true, Relaxed),
        }
    }
}

/// Kernels over one space that run back to back on each partition: one
/// task per kernel, or one task for all of them when `merged` (T3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chain {
    /// Phase label of every region, task and span the chain produces.
    pub label: &'static str,
    /// The space every kernel iterates over.
    pub space: Space,
    /// The kernels, in order.
    pub kernels: Vec<Kernel>,
    /// One stage for all kernels instead of one per kernel.
    pub merged: bool,
}

impl Chain {
    /// A chain of `kernels`, which must share one space.
    pub fn new(label: &'static str, kernels: &[Kernel], merged: bool) -> Self {
        let space = kernels[0].space();
        assert!(
            kernels.iter().all(|k| k.space() == space),
            "{label}: mixed spaces"
        );
        Self {
            label,
            space,
            kernels: kernels.to_vec(),
            merged,
        }
    }

    /// The stages: each runs as one parallel region or one task body.
    pub fn stages(&self) -> std::slice::Chunks<'_, Kernel> {
        let per_stage = if self.merged { self.kernels.len() } else { 1 };
        self.kernels.chunks(per_stage)
    }

    /// Add the chain's tasks over `chunks` to `sink`, all after `start`:
    /// each chunk's stages chained (T2), or a `barrier-stage` sync between
    /// consecutive stages. Returns each chunk's last task.
    pub fn emit<S: GraphSink>(
        &self,
        sink: &mut S,
        chunks: &[Chunk],
        start: Option<S::Node>,
        chained: bool,
    ) -> Vec<S::Node> {
        if chained {
            let chain = |c: Chunk, sink: &mut S| {
                let task = |dep, stage: &[Kernel]| Some(sink.task(self.label, stage, c, dep));
                self.stages()
                    .fold(start, task)
                    .expect("chains are non-empty")
            };
            return chunks.iter().map(|&c| chain(c, sink)).collect();
        }
        let mut layer = Vec::new();
        for (i, stage) in self.stages().enumerate() {
            let dep = match i {
                0 => start,
                _ if layer.is_empty() => return layer,
                _ => Some(sink.sync("barrier-stage", &layer)),
            };
            layer = chunks
                .iter()
                .map(|&c| sink.task(self.label, stage, c, dep))
                .collect();
        }
        layer
    }
}

/// A halo: the boundary data neighbouring sub-domains of a multi-domain
/// run trade. A rank exchanges nodal masses once at setup, then forces and
/// velocity gradients every step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Halo {
    /// Nodal masses, summed over every sharer of a boundary node (the
    /// setup `CommSBN`).
    Mass,
    /// Nodal forces `fx/fy/fz`, summed like the masses (the per-step
    /// `CommSBN`).
    Forces,
    /// The face planes of `delv_xi/eta/zeta`, stored into the neighbour's
    /// ghost elements (the per-step `CommMonoQ`).
    Gradients,
}

impl Halo {
    /// Every kind, in exchange order.
    pub const ALL: [Halo; 3] = [Halo::Mass, Halo::Forces, Halo::Gradients];

    /// Span label of one whole exchange of this kind.
    pub fn label(self) -> &'static str {
        match self {
            Halo::Mass => "halo-mass",
            Halo::Forces => "halo-forces",
            Halo::Gradients => "halo-gradients",
        }
    }
}

/// Independent chains followed by one named sync.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    /// Which partition size the chains' tasks use.
    pub grain: Grain,
    /// The chains, in emission order.
    pub chains: Vec<Chain>,
    /// Label of the sync that ends the phase.
    pub sync: &'static str,
    /// The halo a multi-domain rank exchanges in this phase: `Forces`
    /// between the first kernel of its one chain (the gather) and the rest
    /// (the update), any other kind after its sync. Only
    /// [`StepPlan::tasks`] marks phases; the single-domain interpreters
    /// ignore the field.
    pub halo: Option<Halo>,
}

/// A task graph under construction, as [`Chain::emit`] and
/// [`StepPlan::emit_phase`] see it.
pub trait GraphSink {
    /// Handle of an added node.
    type Node: Copy;
    /// Add a task running `stage` over `chunk`, after `dep`.
    fn task(
        &mut self,
        label: &'static str,
        stage: &[Kernel],
        chunk: Chunk,
        dep: Option<Self::Node>,
    ) -> Self::Node;
    /// Add a sync node joining `deps`.
    fn sync(&mut self, label: &'static str, deps: &[Self::Node]) -> Self::Node;
}

/// One leapfrog iteration as data (see the module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepPlan {
    /// The mesh the plan was built for.
    pub shape: PlanShape,
    /// The phases, in order.
    pub phases: Vec<Phase>,
}

impl StepPlan {
    /// The OpenMP reference: one loop per kernel, the two-pass hourglass,
    /// and the 12-loop EOS ladder per repetition with its regions one after
    /// another. Under fork-join this is 19 + 2R + Σ_r (12·rep_r + 2)
    /// parallel regions per iteration for R regions.
    pub fn reference(shape: PlanShape) -> Self {
        use Grain::{Elements, Nodal};
        use Kernel::*;
        let loops = |label, kernels: &[Kernel]| Chain::new(label, kernels, false);
        let one = |grain, sync, label, kernels: &[Kernel]| {
            phase(grain, sync, vec![loops(label, kernels)])
        };
        let regions = 0..shape.region_lens.len();
        let stress = [
            loops("stress", &[ZeroForces]),
            loops("stress", &[InitStress, IntegrateStress, CheckVolume]),
        ];
        let hourglass = [
            loops("node-gather", &[GatherSet]),
            loops("hourglass", &[HourglassControl, HourglassFb]),
        ];
        let mut q: Vec<_> = regions
            .clone()
            .map(|r| loops("monoq", &[MonoqRegion(r)]))
            .collect();
        q.extend([
            loops("qstop", &[QStop]),
            loops("vnewc", &[VnewcFill, VnewcCheck]),
        ]);
        let mut phases = vec![
            phase(Nodal, "barrier-stress", stress.into()),
            phase(Nodal, "barrier-hourglass", hourglass.into()),
            one(Nodal, "barrier-forces", "node-gather", &[GatherAdd]),
            one(Nodal, "barrier-acceleration", "node", &[Acceleration]),
            one(Nodal, "barrier-bc", "node", &[AccelerationBc]),
            one(Nodal, "barrier-nodes", "node", &[Velocity, Position]),
            one(Elements, "barrier-kinematics", "kinematics", &KINEMATICS),
            phase(Elements, "barrier-q", q),
        ];
        // The regions share the ladder's arrays, so they run one at a time.
        for r in regions.clone() {
            let kernels: Vec<_> = eos::ladder(shape.reps[r]).map(|s| EosLoop(s, r)).collect();
            phases.push(one(Elements, "barrier-eos-region", "eos", &kernels));
        }
        let mut end = vec![loops("volume", &[UpdateVolumes])];
        end.extend(regions.map(|r| loops("constraints", &[Constraints(r)])));
        phases.push(phase(Elements, "barrier-end", end));
        Self { shape, phases }
    }

    /// The paper's task graph for `f`: six syncs with every trick on. The
    /// node phase carries the force halo and the kinematics phase the
    /// gradient halo ([`Phase::halo`]).
    pub fn tasks(shape: PlanShape, f: Features) -> Self {
        use Grain::{Elements, Nodal};
        use Kernel::*;
        let chain = |label, kernels: &[Kernel]| Chain::new(label, kernels, f.merge_kernels);
        let one = |grain, sync, label, kernels: &[Kernel]| {
            phase(grain, sync, vec![chain(label, kernels)])
        };
        let regions = 0..shape.region_lens.len();
        let (stress, hourglass) = if f.merge_kernels {
            (chain("stress", &[Stress]), chain("hourglass", &[Hourglass]))
        } else {
            let stress = chain("stress", &[InitStress, IntegrateStressChecked]);
            (stress, chain("hourglass", &[HourglassControl, HourglassFb]))
        };
        let mut phases = if f.parallel_force_chains {
            vec![phase(Nodal, "barrier-forces", vec![stress, hourglass])]
        } else {
            vec![
                phase(Nodal, "barrier-stress-hg", vec![stress]),
                phase(Nodal, "barrier-forces", vec![hourglass]),
            ]
        };
        // The acceleration BC is node-local by index arithmetic, so it
        // rides in the node chain instead of costing a sync of its own.
        let node = [
            GatherSum2,
            Acceleration,
            AccelerationBcByNode,
            Velocity,
            Position,
        ];
        let mut q: Vec<_> = regions
            .clone()
            .map(|r| chain("monoq", &[MonoqRegion(r)]))
            .collect();
        q.extend([
            chain("vnewc", &[VnewcFill, VnewcCheck]),
            chain("qstop", &[QStop]),
        ]);
        phases.extend([
            Phase {
                halo: Some(Halo::Forces),
                ..one(Nodal, "barrier-nodes", "node", &node)
            },
            Phase {
                halo: Some(Halo::Gradients),
                ..one(Elements, "barrier-kinematics", "kinematics", &KINEMATICS)
            },
            phase(Elements, "barrier-q", q),
        ]);
        if f.parallel_region_eos {
            let eos = regions.clone().map(|r| chain("eos", &[Eos(r)])).collect();
            phases.push(phase(Elements, "barrier-eos", eos));
        } else {
            // An empty region would leave its sync without inputs.
            for r in regions.clone().filter(|&r| shape.region_lens[r] > 0) {
                phases.push(one(Elements, "barrier-eos-region", "eos", &[Eos(r)]));
            }
        }
        // The volume commit overlaps the dt-constraint scan.
        let mut end = vec![chain("volume", &[UpdateVolumes])];
        end.extend(regions.map(|r| chain("constraints", &[Constraints(r)])));
        phases.push(phase(Elements, "barrier-end", end));
        Self { shape, phases }
    }

    /// Every kernel of the plan, in order.
    fn kernels(&self) -> impl Iterator<Item = &Kernel> {
        self.phases
            .iter()
            .flat_map(|p| &p.chains)
            .flat_map(|c| &c.kernels)
    }

    /// Every stage of the plan with its chain, in order.
    pub fn stages(&self) -> impl Iterator<Item = (&Chain, &[Kernel])> {
        let chains = self.phases.iter().flat_map(|p| &p.chains);
        chains.flat_map(|c| c.stages().map(move |stage| (c, stage)))
    }

    /// Add `phase` to `sink` after `start`, its chains partitioned into
    /// `part`-sized chunks, and return its sync.
    pub fn emit_phase<S: GraphSink>(
        &self,
        sink: &mut S,
        phase: &Phase,
        part: usize,
        start: Option<S::Node>,
        chained: bool,
    ) -> S::Node {
        let mut finals = Vec::new();
        for chain in &phase.chains {
            let chunks: Vec<Chunk> = chunks_of(self.shape.len(chain.space), part).collect();
            finals.extend(chain.emit(sink, &chunks, start, chained));
        }
        sink.sync(phase.sync, &finals)
    }
}

/// The element kinematics chain: strain rates, volume check, q gradients.
const KINEMATICS: [Kernel; 3] = [
    Kernel::Kinematics,
    Kernel::LagrangeFinish,
    Kernel::MonoqGradients,
];

fn phase(grain: Grain, sync: &'static str, chains: Vec<Chain>) -> Phase {
    Phase {
        grain,
        chains,
        sync,
        halo: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(regions: &[(usize, usize)]) -> PlanShape {
        PlanShape {
            num_elem: 125,
            num_node: 216,
            symm_len: 36,
            region_lens: regions.iter().map(|r| r.0).collect(),
            reps: regions.iter().map(|r| r.1).collect(),
        }
    }

    #[test]
    fn reference_has_one_region_per_loop_of_the_openmp_code() {
        let regions = [(40, 1), (0, 2), (85, 20)];
        let plan = StepPlan::reference(shape(&regions));
        let eos: usize = regions.iter().map(|&(_, rep)| 12 * rep + 2).sum();
        assert_eq!(plan.stages().count(), 19 + 2 * regions.len() + eos);
    }

    /// Every plane of `s`, with the [`Kernel::arrays`] bit that names it.
    fn planes(s: &StepScratch) -> Vec<(u8, Plane)> {
        let mut all = vec![(DETERM, s.determ), (VNEWC, s.vnewc)];
        let groups = [(SIG, s.sig), (F_ELEM, s.f_elem), (F_HG, s.f_hg)];
        let groups = groups
            .into_iter()
            .chain([(GEOMETRY, s.dvd), (GEOMETRY, s.xyz8n)]);
        for (bit, group) in groups {
            all.extend(group.map(|p| (bit, p)));
        }
        all.extend(s.eos.map(|p| (EOS, p)));
        all
    }

    #[test]
    fn scratch_holds_only_what_the_plan_uses() {
        // Each plan's arrays are disjoint, 64-byte-aligned planes of one
        // block; the arrays its kernels do not name take no space.
        let regions = [(100, 1), (0, 2), (25, 3)];
        let all = SIG | DETERM | F_ELEM | F_HG | GEOMETRY | VNEWC | EOS;
        let plans = [
            (Features::default(), F_ELEM | F_HG | VNEWC),
            (Features::naive(), all & !EOS),
        ];
        let plans = plans.map(|(f, used)| (StepPlan::tasks(shape(&regions), f), used));
        for (plan, used) in plans
            .into_iter()
            .chain([(StepPlan::reference(shape(&regions)), all)])
        {
            let s = StepScratch::new(&plan, 2);
            let mut planes = planes(&s);
            for &(bit, p) in &planes {
                let len = match bit {
                    EOS => 100,
                    F_ELEM | F_HG | GEOMETRY => 8 * 125,
                    _ => 125,
                };
                assert_eq!(p.len, if used & bit != 0 { len } else { 0 }, "bit {bit}");
                // SAFETY: no other access to the scratch is in flight.
                let at = unsafe { s.part(p, p.all()) }.as_ptr() as usize;
                assert!(
                    p.len == 0 || at.is_multiple_of(parutil::CACHE_LINE),
                    "bit {bit}"
                );
            }
            planes.sort_by_key(|&(_, p)| (p.off, p.len));
            for pair in planes.windows(2) {
                assert!(pair[0].1.off + pair[0].1.len <= pair[1].1.off);
            }
            let last = planes.last().unwrap().1;
            assert!(last.off + last.len <= s.slab.len());
        }
    }

    #[test]
    #[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
    fn first_writes_to_an_s45_scratch_fault_once_per_huge_page() {
        use crate::slab::faults::{minor_faults, thp_off};
        if thp_off() {
            eprintln!("skip: transparent huge pages are off on this host");
            return;
        }
        let n = 45;
        let s45 = PlanShape {
            num_elem: n * n * n,
            num_node: (n + 1) * (n + 1) * (n + 1),
            symm_len: (n + 1) * (n + 1),
            region_lens: vec![n * n * n],
            reps: vec![1],
        };
        // Six corner-force planes and `vnewc`: 36 MB, ~8.7k 4 KiB pages.
        let s = StepScratch::new(&StepPlan::tasks(s45, Features::default()), 1);
        let before = minor_faults();
        for (_, p) in planes(&s) {
            // SAFETY: no other access to the scratch is in flight.
            unsafe { s.part_mut(p, p.all()) }.fill(1.0);
        }
        let faults = minor_faults() - before;
        assert!(faults < 1000, "{faults} minor faults writing the scratch");
    }

    #[test]
    fn only_the_task_plan_marks_the_per_step_halos() {
        let halos = |plan: &StepPlan| -> Vec<(&str, Halo)> {
            let marked = plan.phases.iter().filter_map(|p| Some((p.sync, p.halo?)));
            marked.collect()
        };
        for f in [Features::default(), Features::naive()] {
            let plan = StepPlan::tasks(shape(&[(125, 1)]), f);
            assert_eq!(
                halos(&plan),
                [
                    ("barrier-nodes", Halo::Forces),
                    ("barrier-kinematics", Halo::Gradients)
                ]
            );
        }
        assert!(halos(&StepPlan::reference(shape(&[(125, 1)]))).is_empty());
    }

    #[test]
    fn a_whole_mesh_stress_pass_keeps_the_thread_slot_one_pass_long() {
        // A serial rank or a fork-join thread hands the fused stress
        // kernel one chunk of thousands of elements; its temporaries must
        // still fit the slot a `LOCAL_CHUNK` pass warmed, so the first
        // step allocates nothing mesh-sized.
        let d = Domain::build(14, 1, 1, 1, 0);
        assert!(d.num_elem() > LOCAL_CHUNK);
        let s = StepScratch::new(&StepPlan::tasks(PlanShape::of(&d), Features::default()), 1);
        let run = |end| {
            // SAFETY: this thread is the only user of the scratch.
            unsafe { Kernel::Stress.run(&d, &s, s.local(0), Chunk { begin: 0, end }, 0.0) };
            // SAFETY: as above; the pass has returned.
            let local = unsafe { s.local(0) };
            (
                local.sig.each_ref().map(|b| b.as_ptr()),
                local.determ.as_ptr(),
            )
        };
        let warm = run(LOCAL_CHUNK);
        assert_eq!(run(d.num_elem()), warm, "a whole-mesh pass regrew the slot");
        assert!(s.error().is_none());
    }

    #[test]
    fn dt_minima_fold_in_any_order() {
        let s = StepScratch::new(&StepPlan::reference(shape(&[(125, 1)])), 1);
        s.begin_iteration(0.5);
        for v in [Some(3.0), None, Some(2.0), Some(4.0)] {
            lower(&s.dtcourant, v);
        }
        assert_eq!(s.dt_mins(), (2.0, 1.0e20));
        assert_eq!(s.dt(), 0.5);
    }
}
