//! The serial reference driver: `LagrangeLeapFrog` composed from the
//! kernels in reference order, one chunk covering the whole mesh.
//!
//! This driver is the golden reference for every interpreter of
//! [`crate::plan::StepPlan`] — they must reproduce its results to the last
//! bit (same kernels, same summation orders) — so it spells the step out
//! by hand instead of walking a plan. Its phase functions are split where
//! the lockstep multi-domain reference (`multidom::World::step`) exchanges
//! halos.

use crate::domain::Domain;
use crate::kernels::{constraints, eos, hourglass, kinematics, monoq, nodal, stress};
use crate::params::SimState;
use crate::slab::{split_mut, Layout, Plane};
use crate::timestep::time_increment;
use crate::types::{LuleshError, Real};
use parutil::{Chunk, SharedVec};

/// Whole-mesh scratch arrays reused across iterations (the reference
/// allocates/frees them every call; persistence changes no results). The
/// eleven mesh-length arrays — stress diagonal, `determ`, per-corner
/// stress and hourglass forces, `vnewc` — are planes of one block, laid
/// out like the parallel drivers' [`StepScratch`](crate::plan::StepScratch),
/// so serial and parallel runs pay the same first-touch cost.
#[derive(Debug)]
pub struct SerialScratch {
    /// The block holding every plane.
    slab: SharedVec<Real>,
    /// The eleven planes, in the order of [`Planes`]' fields.
    planes: [Plane; 11],
    /// Region-length EOS scratch.
    eos: eos::EosScratch,
}

/// The arrays of a [`SerialScratch`], borrowed all at once.
struct Planes<'a> {
    /// Stress diagonal (`sigxx/yy/zz`), mesh length.
    sig: [&'a mut [Real]; 3],
    /// Jacobian determinants / absolute volumes, mesh length.
    determ: &'a mut [Real],
    /// Per-corner stress forces, `8·num_elem` each.
    f_elem: [&'a mut [Real]; 3],
    /// Per-corner hourglass forces, `8·num_elem` each.
    f_hg: [&'a mut [Real]; 3],
    /// Clamped new relative volumes, mesh length.
    vnewc: &'a mut [Real],
}

impl SerialScratch {
    /// Scratch sized for `num_elem` elements.
    pub fn new(num_elem: usize) -> Self {
        let mut layout = Layout::default();
        let lens = [1, 1, 1, 1, 8, 8, 8, 8, 8, 8, 1];
        let planes = lens.map(|per_elem| layout.plane(per_elem * num_elem));
        Self {
            slab: layout.block(),
            planes,
            eos: eos::EosScratch::default(),
        }
    }

    /// Every array, plus the EOS scratch.
    fn planes(&mut self) -> (Planes<'_>, &mut eos::EosScratch) {
        let [sx, sy, sz, determ, fxe, fye, fze, fxh, fyh, fzh, vnewc] =
            split_mut(self.slab.as_mut_slice(), self.planes);
        let planes = Planes {
            sig: [sx, sy, sz],
            determ,
            f_elem: [fxe, fye, fze],
            f_hg: [fxh, fyh, fzh],
            vnewc,
        };
        (planes, &mut self.eos)
    }
}

fn elems(d: &Domain) -> Chunk {
    Chunk {
        begin: 0,
        end: d.num_elem(),
    }
}

fn nodes(d: &Domain) -> Chunk {
    Chunk {
        begin: 0,
        end: d.num_node(),
    }
}

/// `CalcForceForNodes`: the element-force half of `LagrangeNodal` (stress
/// and hourglass pipelines plus the nodal gathers). Separated out so the
/// lockstep multi-domain reference can exchange boundary-plane forces
/// before the node state advance.
pub fn calc_force_for_nodes(d: &Domain, s: &mut SerialScratch) -> Result<(), LuleshError> {
    let (s, _) = s.planes();
    let [sx, sy, sz] = s.sig;
    let [fx, fy, fz] = s.f_elem;
    stress::init_stress_terms_for_elems(d, sx, sy, sz, elems(d));
    stress::integrate_stress_for_elems(d, sx, sy, sz, s.determ, fx, fy, fz, elems(d));
    stress::check_volume_error(s.determ)?;

    // One walk over the corner lists sets every nodal force: bit-identical
    // to the reference's zero + stress gather + hourglass gather-add.
    if d.params.hgcoef > 0.0 {
        let [hx, hy, hz] = s.f_hg;
        hourglass::calc_hourglass_force_for_elems(d, d.params.hgcoef, hx, hy, hz, elems(d))?;
        stress::gather_forces_sum2(d, fx, fy, fz, hx, hy, hz, nodes(d));
    } else {
        hourglass::check_relative_volumes(d, elems(d))?;
        stress::gather_forces_set(d, fx, fy, fz, nodes(d));
    }
    Ok(())
}

/// Node state advance: acceleration, boundary conditions, velocity,
/// position (the second half of `LagrangeNodal`).
pub fn advance_nodes(d: &Domain, dt: Real) {
    nodal::calc_acceleration_for_nodes(d, nodes(d));
    nodal::apply_acceleration_boundary_conditions(
        d,
        Chunk {
            begin: 0,
            end: nodal::symm_list_len(d),
        },
    );
    nodal::calc_velocity_for_nodes(d, dt, d.params.u_cut, nodes(d));
    nodal::calc_position_for_nodes(d, dt, nodes(d));
}

/// `LagrangeNodal`: force calculation and node state advance.
pub fn lagrange_nodal(d: &Domain, s: &mut SerialScratch, dt: Real) -> Result<(), LuleshError> {
    calc_force_for_nodes(d, s)?;
    advance_nodes(d, dt);
    Ok(())
}

/// Element kinematics and monotonic-q gradients (the first half of
/// `LagrangeElements`). After this, the lockstep multi-domain reference
/// exchanges the ghost-plane velocity gradients.
pub fn calc_kinematics_and_gradients(d: &Domain, dt: Real) -> Result<(), LuleshError> {
    kinematics::calc_kinematics_for_elems(d, dt, elems(d));
    kinematics::calc_lagrange_elements_finish(d, elems(d))?;
    monoq::calc_monotonic_q_gradients_for_elems(d, elems(d));
    Ok(())
}

/// Monotonic-q limiter, material EOS and volume commit (the second half of
/// `LagrangeElements`).
pub fn apply_q_and_materials(d: &Domain, s: &mut SerialScratch) -> Result<(), LuleshError> {
    let p = d.params;
    for r in 0..d.num_reg() {
        monoq::calc_monotonic_q_region_for_elems(d, &d.regions.reg_elem_list[r], &p);
    }
    monoq::check_q_stop(d, p.qstop, elems(d))?;

    let (Planes { vnewc, .. }, scratch) = s.planes();
    eos::fill_vnewc_clamped(d, vnewc, p.eosvmin, p.eosvmax, elems(d));
    eos::check_eos_volume_bounds(d, p.eosvmin, p.eosvmax, elems(d))?;
    for r in 0..d.num_reg() {
        let rep = d.regions.rep(r);
        eos::eval_eos_for_elems(d, vnewc, &d.regions.reg_elem_list[r], rep, &p, scratch);
    }

    kinematics::update_volumes_for_elems(d, p.v_cut, elems(d));
    Ok(())
}

/// `LagrangeElements`: kinematics, artificial viscosity, EOS, volume commit.
pub fn lagrange_elements(d: &Domain, s: &mut SerialScratch, dt: Real) -> Result<(), LuleshError> {
    calc_kinematics_and_gradients(d, dt)?;
    apply_q_and_materials(d, s)
}

/// One `LagrangeLeapFrog` step: nodal phase, element phase, constraints.
pub fn lagrange_leap_frog(
    d: &Domain,
    s: &mut SerialScratch,
    state: &mut SimState,
) -> Result<(), LuleshError> {
    let dt = state.deltatime;
    lagrange_nodal(d, s, dt)?;
    lagrange_elements(d, s, dt)?;
    let (dtcourant, dthydro) =
        constraints::calc_time_constraints(d, d.params.qqc, d.params.dvovmax);
    state.dtcourant = dtcourant;
    state.dthydro = dthydro;
    Ok(())
}

/// Run the whole problem (or `max_cycles` iterations) serially. Returns the
/// final simulation state.
pub fn run(d: &Domain, max_cycles: u64) -> Result<SimState, LuleshError> {
    let mut state = SimState::new(d.initial_dt());
    let mut scratch = SerialScratch::new(d.num_elem());
    while state.time < d.params.stoptime && state.cycle < max_cycles {
        time_increment(&mut state, &d.params);
        lagrange_leap_frog(d, &mut scratch, &mut state)?;
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;

    #[test]
    fn single_step_runs_and_moves_energy() {
        let d = Domain::build(5, 1, 1, 1, 0);
        let state = run(&d, 1).unwrap();
        assert_eq!(state.cycle, 1);
        assert!(state.time > 0.0);
        // Energy must begin spreading from the origin element.
        assert!(d.e(0) > 0.0);
        // The origin element is compressed outward: neighbours gain q or p.
        let picked_up: usize = (0..d.num_elem())
            .filter(|&e| d.e(e) != 0.0 || d.p(e) != 0.0 || d.q(e) != 0.0)
            .count();
        assert!(picked_up >= 1);
    }

    #[test]
    fn several_steps_conserve_symmetry() {
        // The Sedov problem is symmetric in x/y/z; energies of transposed
        // elements on the z=0 plane must match (the reference's own
        // verification criterion).
        let d = Domain::build(8, 1, 1, 1, 0);
        run(&d, 20).unwrap();
        let n = d.size();
        let mut max_abs = 0.0f64;
        for j in 0..n {
            for k in j + 1..n {
                let diff = (d.e(j * n + k) - d.e(k * n + j)).abs();
                max_abs = max_abs.max(diff);
            }
        }
        assert!(max_abs < 1e-8, "symmetry violation {max_abs}");
    }

    #[test]
    fn region_count_does_not_change_physics() {
        // Regions alter iteration order per region but every element gets
        // the same EOS: results must agree across region counts closely.
        let d1 = Domain::build(6, 1, 1, 1, 0);
        let d11 = Domain::build(6, 7, 1, 1, 0);
        run(&d1, 15).unwrap();
        run(&d11, 15).unwrap();
        for e in 0..d1.num_elem() {
            let a = d1.e(e);
            let b = d11.e(e);
            assert!(
                (a - b).abs() <= 1e-9 * a.abs().max(1.0),
                "elem {e}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn dt_remains_positive_and_bounded() {
        let d = Domain::build(6, 2, 1, 1, 0);
        let mut state = SimState::new(d.initial_dt());
        let mut scratch = SerialScratch::new(d.num_elem());
        for _ in 0..30 {
            time_increment(&mut state, &d.params);
            assert!(state.deltatime > 0.0);
            assert!(state.deltatime <= d.params.dtmax);
            lagrange_leap_frog(&d, &mut scratch, &mut state).unwrap();
        }
        assert!(
            state.dtcourant < 1.0e20,
            "constraints must bind once moving"
        );
    }
}
