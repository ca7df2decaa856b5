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
//! - `simsched` prices each kernel from its cost model.
//!
//! A multi-domain task rank runs [`StepPlan::tasks`] too, and reads from
//! [`Phase::halo`] where its [`Halo`] exchanges go; the three interpreters
//! above ignore that field.
//!
//! [`StepPlan::reference`] is the OpenMP reference's loop list (two-pass
//! hourglass, the 12-loop EOS ladder); [`StepPlan::tasks`] is the paper's
//! task graph for any [`Features`] combination. [`crate::serial`] stays
//! hand-written: it is the reference the interpreters are compared against.
//!
//! Bit-identity holds by construction: every interpreter makes the same
//! kernel calls in a dependency order, node sums keep the reference corner
//! order, and the dt reductions are order-independent minima.

use crate::domain::Domain;
use crate::kernels::{constraints, eos, hourglass, kinematics, monoq, nodal, stress};
use crate::types::{Index, LuleshError, Real};
use parutil::{chunks_of, AlignedBuf, CachePadded, Chunk, SharedVec};
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

/// One loop of the reference's `EvalEOSForElems` over a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EosStep {
    /// Gather the old element state.
    Gather,
    /// Full- and half-step compression.
    Compression,
    /// Clamp the compressions at the volume bounds.
    ClampCompression,
    /// Zero the external work.
    ZeroWork,
    /// `CalcEnergyForElems` step 1.
    Energy1,
    /// Half-step pressure.
    PressureHalfStep,
    /// `CalcEnergyForElems` step 2.
    Energy2,
    /// `CalcEnergyForElems` step 3.
    Energy3,
    /// Full-step pressure.
    Pressure,
    /// `CalcEnergyForElems` step 4.
    Energy4,
    /// `CalcEnergyForElems` step 5.
    Energy5,
    /// Store p, e, q back to the mesh.
    Store,
    /// `CalcSoundSpeedForElems`.
    SoundSpeed,
}

/// The loops of one EOS repetition, in reference order.
pub const EOS_LADDER: [EosStep; 12] = {
    use EosStep::*;
    [
        Gather,
        Compression,
        ClampCompression,
        ZeroWork,
        Energy1,
        PressureHalfStep,
        Energy2,
        Energy3,
        Pressure,
        Energy4,
        Pressure,
        Energy5,
    ]
};

/// The loops after a region's last repetition.
pub const EOS_FINISH: [EosStep; 2] = [EosStep::Store, EosStep::SoundSpeed];

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
    EosLoop(EosStep, usize),
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
        let c8 = Chunk {
            begin: 8 * c.begin,
            end: 8 * c.end,
        };
        let all = |v: &[SharedVec<Real>; 3]| Chunk {
            begin: 0,
            end: v[0].len(),
        };
        match *self {
            ZeroForces => stress::zero_forces(d, c),
            InitStress => {
                let [sx, sy, sz] = cut_mut(&s.sig, c);
                stress::init_stress_terms_for_elems(d, sx, sy, sz, c);
            }
            IntegrateStress => {
                let [sx, sy, sz] = cut(&s.sig, c);
                let [fx, fy, fz] = cut_mut(&s.f_elem, c8);
                let determ = s.determ.slice_mut(c.begin, c.end);
                stress::integrate_stress_for_elems(d, sx, sy, sz, determ, fx, fy, fz, c);
            }
            CheckVolume => {
                s.flag(stress::check_volume_error(s.determ.slice(c.begin, c.end)));
            }
            IntegrateStressChecked => {
                let [sx, sy, sz] = cut(&s.sig, c);
                let [fx, fy, fz] = cut_mut(&s.f_elem, c8);
                local.determ.reset_len(c.len());
                let determ = &mut local.determ;
                stress::integrate_stress_for_elems(d, sx, sy, sz, determ, fx, fy, fz, c);
                s.flag(stress::check_volume_error(determ));
            }
            Stress => {
                // No clearing: both kernels write all `c.len()` values.
                let KernelScratch { sig, determ, .. } = local;
                for buf in sig.iter_mut().chain([&mut *determ]) {
                    buf.reset_len(c.len());
                }
                let [sx, sy, sz] = sig;
                stress::init_stress_terms_for_elems(d, sx, sy, sz, c);
                let [fx, fy, fz] = cut_mut(&s.f_elem, c8);
                stress::integrate_stress_for_elems(d, sx, sy, sz, determ, fx, fy, fz, c);
                s.flag(stress::check_volume_error(determ));
            }
            HourglassControl => {
                let [dx, dy, dz] = cut_mut(&s.dvd, c8);
                let [x8, y8, z8] = cut_mut(&s.xyz8n, c8);
                let determ = s.determ.slice_mut(c.begin, c.end);
                s.flag(hourglass::calc_hourglass_control_for_elems(
                    d, dx, dy, dz, x8, y8, z8, determ, c,
                ));
            }
            HourglassFb if p.hgcoef > 0.0 => {
                let [dx, dy, dz] = cut(&s.dvd, c8);
                let [x8, y8, z8] = cut(&s.xyz8n, c8);
                let [fx, fy, fz] = cut_mut(&s.f_hg, c8);
                let determ = s.determ.slice(c.begin, c.end);
                hourglass::calc_fb_hourglass_force_for_elems(
                    d, determ, x8, y8, z8, dx, dy, dz, p.hgcoef, fx, fy, fz, c,
                );
            }
            Hourglass if p.hgcoef > 0.0 => {
                // The geometry the two-pass kernels stream through
                // memory stays on the stack.
                let [fx, fy, fz] = cut_mut(&s.f_hg, c8);
                let r = hourglass::calc_hourglass_force_for_elems(d, p.hgcoef, fx, fy, fz, c);
                s.flag(r);
            }
            Hourglass => s.flag(hourglass::check_relative_volumes(d, c)),
            GatherSet => {
                let [fx, fy, fz] = cut(&s.f_elem, all(&s.f_elem));
                stress::gather_forces_set(d, fx, fy, fz, c);
            }
            GatherAdd if p.hgcoef > 0.0 => {
                let [fx, fy, fz] = cut(&s.f_hg, all(&s.f_hg));
                stress::gather_forces_add(d, fx, fy, fz, c);
            }
            // No hourglass forces when `hgcoef == 0`.
            HourglassFb | GatherAdd => {}
            GatherSum2 => {
                let [ax, ay, az] = cut(&s.f_elem, all(&s.f_elem));
                let [bx, by, bz] = cut(&s.f_hg, all(&s.f_hg));
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
                let vnewc = s.vnewc.slice_mut(c.begin, c.end);
                eos::fill_vnewc_clamped(d, vnewc, p.eosvmin, p.eosvmax, c);
            }
            VnewcCheck => s.flag(eos::check_eos_volume_bounds(d, p.eosvmin, p.eosvmax, c)),
            Eos(r) => {
                // Only the scalar arm touches `local.eos`; the lane arms
                // keep the whole pipeline in registers.
                let (vnewc, elems) = (s.vnewc.as_slice(), region(d, r, c));
                eos::eval_eos_for_elems(d, vnewc, elems, d.regions.rep(r), p, &mut local.eos);
            }
            EosLoop(step, r) => eos_loop(step, d, s, region(d, r, c), c),
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

/// Positions `c` of region `r`'s element list.
fn region(d: &Domain, r: usize, c: Chunk) -> &[Index] {
    &d.regions.reg_elem_list[r][c.begin..c.end]
}

/// Chunk `c` of each of `N` arrays, for reading.
///
/// # Safety
/// No thread may write `c` of any of them meanwhile.
unsafe fn cut<const N: usize>(v: &[SharedVec<Real>; N], c: Chunk) -> [&[Real]; N] {
    v.each_ref().map(|a| a.slice(c.begin, c.end))
}

/// Chunk `c` of each of `N` arrays, for writing.
///
/// # Safety
/// No other thread may touch `c` of any of them meanwhile.
#[allow(clippy::mut_from_ref)]
unsafe fn cut_mut<const N: usize>(v: &[SharedVec<Real>; N], c: Chunk) -> [&mut [Real]; N] {
    v.each_ref().map(|a| a.slice_mut(c.begin, c.end))
}

/// One loop of the reference EOS ladder over positions `c` of a region.
///
/// # Safety
/// As [`Kernel::run`]: chunk `c` of the region arrays belongs to the call.
unsafe fn eos_loop(step: EosStep, d: &Domain, s: &StepScratch, elems: &[Index], c: Chunk) {
    let p = &d.params;
    let rho0 = p.refdens;
    let vnewc = s.vnewc.as_slice();
    let [e_old, delvc, p_old, q_old, qq_old, ql_old, comp, comp_half, work, p_new, e_new, q_new, bvc, pbvc, p_half] =
        cut_mut(&s.eos, c);
    match step {
        EosStep::Gather => eos::eos_gather(d, elems, e_old, delvc, p_old, q_old, qq_old, ql_old),
        EosStep::Compression => eos::eos_compression(elems, vnewc, delvc, comp, comp_half),
        EosStep::ClampCompression => {
            eos::eos_clamp_compression(elems, vnewc, p.eosvmin, p.eosvmax, comp, comp_half, p_old)
        }
        EosStep::ZeroWork => work.fill(0.0),
        EosStep::Energy1 => eos::energy_step1(e_new, e_old, delvc, p_old, q_old, work, p.emin),
        EosStep::PressureHalfStep => eos::calc_pressure_for_elems(
            p_half, bvc, pbvc, e_new, comp_half, vnewc, elems, p.pmin, p.p_cut, p.eosvmax,
        ),
        EosStep::Energy2 => eos::energy_step2(
            e_new, q_new, comp_half, p_half, bvc, pbvc, delvc, p_old, q_old, ql_old, qq_old, rho0,
        ),
        EosStep::Energy3 => eos::energy_step3(e_new, work, p.e_cut, p.emin),
        EosStep::Pressure => eos::calc_pressure_for_elems(
            p_new, bvc, pbvc, e_new, comp, vnewc, elems, p.pmin, p.p_cut, p.eosvmax,
        ),
        EosStep::Energy4 => eos::energy_step4(
            e_new, delvc, p_old, q_old, p_half, q_new, p_new, bvc, pbvc, ql_old, qq_old, vnewc,
            elems, rho0, p.e_cut, p.emin,
        ),
        EosStep::Energy5 => eos::energy_step5(
            q_new, delvc, pbvc, e_new, vnewc, elems, bvc, p_new, ql_old, qq_old, rho0, p.q_cut,
        ),
        EosStep::Store => eos::eos_store(d, elems, p_new, e_new, q_new),
        EosStep::SoundSpeed => {
            eos::calc_sound_speed_for_elems(d, vnewc, rho0, e_new, p_new, pbvc, bvc, elems)
        }
    }
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
/// cross a sync, the region-length arrays of the reference EOS ladder, the
/// error flags, the dt minima, and one [`KernelScratch`] per thread.
pub struct StepScratch {
    sig: [SharedVec<Real>; 3],
    determ: SharedVec<Real>,
    f_elem: [SharedVec<Real>; 3],
    f_hg: [SharedVec<Real>; 3],
    dvd: [SharedVec<Real>; 3],
    xyz8n: [SharedVec<Real>; 3],
    vnewc: SharedVec<Real>,
    eos: [SharedVec<Real>; 15],
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
    /// plan's kernels use are allocated, as untouched zero pages that
    /// become resident as the kernels first write them.
    pub fn new(plan: &StepPlan, threads: usize) -> Self {
        let used = plan.kernels().fold(0, |m, k| m | k.arrays());
        let shape = &plan.shape;
        let zeroed = |bit, n| SharedVec::zeroed(if used & bit != 0 { n } else { 0 });
        let longest_region = shape.region_lens.iter().copied().max().unwrap_or(0);
        let local = (0..threads).map(|_| CachePadded(KernelScratch::default()));
        Self {
            sig: std::array::from_fn(|_| zeroed(SIG, shape.num_elem)),
            determ: zeroed(DETERM, shape.num_elem),
            f_elem: std::array::from_fn(|_| zeroed(F_ELEM, 8 * shape.num_elem)),
            f_hg: std::array::from_fn(|_| zeroed(F_HG, 8 * shape.num_elem)),
            dvd: std::array::from_fn(|_| zeroed(GEOMETRY, 8 * shape.num_elem)),
            xyz8n: std::array::from_fn(|_| zeroed(GEOMETRY, 8 * shape.num_elem)),
            vnewc: zeroed(VNEWC, shape.num_elem),
            eos: std::array::from_fn(|_| zeroed(EOS, longest_region)),
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
            let reps = EOS_LADDER
                .iter()
                .cycle()
                .take(EOS_LADDER.len() * shape.reps[r]);
            let kernels: Vec<_> = reps.chain(&EOS_FINISH).map(|&s| EosLoop(s, r)).collect();
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

    #[test]
    fn scratch_holds_only_what_the_plan_uses() {
        let merged = StepScratch::new(&StepPlan::tasks(shape(&[(125, 1)]), Features::default()), 1);
        assert!(merged.sig[0].is_empty() && merged.determ.is_empty() && merged.eos[0].is_empty());
        assert_eq!(merged.f_elem[2].len(), 8 * 125);
        let reference = StepScratch::new(&StepPlan::reference(shape(&[(100, 1), (25, 3)])), 1);
        assert_eq!(reference.eos[14].len(), 100);
        assert_eq!(reference.xyz8n[0].len(), 8 * 125);
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
