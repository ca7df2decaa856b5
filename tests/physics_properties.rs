//! Property-based tests of the full physics pipeline: invariants that must
//! hold for *any* valid configuration and any stable run, exercised through
//! the whole leapfrog rather than individual kernels.

use lulesh::core::params::SimState;
use lulesh::core::serial::{lagrange_leap_frog, SerialScratch};
use lulesh::core::timestep::time_increment;
use lulesh::core::{validate, Domain, Real};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any (size, regions, seed) configuration runs stably and keeps the
    /// whole-mesh invariants for a handful of cycles.
    #[test]
    fn arbitrary_configs_run_stably(
        size in 3usize..9,
        regs in 1usize..8,
        seed in 0u64..16,
        cycles in 3u64..12,
    ) {
        let d = Domain::build(size, regs, 1, 1, seed);
        let st = lulesh::core::serial::run(&d, cycles).expect("stable");
        prop_assert_eq!(st.cycle, cycles);
        prop_assert!(st.deltatime > 0.0);
        validate::check_invariants(&d).map_err(TestCaseError::fail)?;
    }

    /// The Sedov symmetry (x/y/z exchange) survives the whole pipeline for
    /// any region decomposition — regions slice the mesh asymmetrically,
    /// but must not change the physics.
    #[test]
    fn symmetry_invariant_under_region_choice(regs in 1usize..12, seed in 0u64..8) {
        let d = Domain::build(7, regs, 1, 1, seed);
        lulesh::core::serial::run(&d, 15).expect("stable");
        let sym = validate::symmetry_check(&d);
        prop_assert!(sym.max_abs_diff < 1e-7, "sym {:?}", sym);
    }

    /// Total element mass is conserved exactly (element masses never
    /// change), and relative volumes stay positive through the blast.
    #[test]
    fn mass_conserved_volumes_positive(size in 4usize..8, cycles in 5u64..20) {
        let d = Domain::build(size, 3, 1, 1, 0);
        let before: Real = (0..d.num_elem()).map(|e| d.elem_mass(e)).sum();
        lulesh::core::serial::run(&d, cycles).expect("stable");
        let after: Real = (0..d.num_elem()).map(|e| d.elem_mass(e)).sum();
        prop_assert_eq!(before, after);
        for e in 0..d.num_elem() {
            prop_assert!(d.v(e) > 0.0, "element {} volume {}", e, d.v(e));
        }
    }

    /// The timestep sequence is positive, bounded by dtmax, and grows by
    /// at most the ub ratio per step, for any stable run.
    #[test]
    fn dt_sequence_is_well_behaved(size in 4usize..8) {
        let d = Domain::build(size, 2, 1, 1, 0);
        let mut state = SimState::new(d.initial_dt());
        let mut scratch = SerialScratch::new(d.num_elem());
        let mut prev_dt = state.deltatime;
        for _ in 0..20 {
            time_increment(&mut state, &d.params);
            prop_assert!(state.deltatime > 0.0);
            prop_assert!(state.deltatime <= d.params.dtmax + 1e-18);
            prop_assert!(
                state.deltatime <= prev_dt * d.params.deltatimemultub * (1.0 + 1e-12)
            );
            prev_dt = state.deltatime;
            lagrange_leap_frog(&d, &mut scratch, &mut state).expect("stable");
        }
    }

    /// Blast monotonicity: the shocked region (elements with nonzero
    /// pressure) never shrinks over time.
    #[test]
    fn blast_front_expands_monotonically(size in 5usize..9) {
        let d = Domain::build(size, 2, 1, 1, 0);
        let mut state = SimState::new(d.initial_dt());
        let mut scratch = SerialScratch::new(d.num_elem());
        let mut prev_touched = 0usize;
        for _ in 0..6 {
            for _ in 0..5 {
                time_increment(&mut state, &d.params);
                lagrange_leap_frog(&d, &mut scratch, &mut state).expect("stable");
            }
            let touched = (0..d.num_elem())
                .filter(|&e| d.p(e) != 0.0 || d.e(e) != 0.0 || d.q(e) != 0.0)
                .count();
            prop_assert!(touched >= prev_touched, "{touched} < {prev_touched}");
            prev_touched = touched;
        }
    }

    /// Node positions stay inside a physically plausible bounding box (the
    /// blast pushes outward from the origin corner; the symmetry planes
    /// pin the lower faces at zero).
    #[test]
    fn nodes_respect_symmetry_planes(size in 4usize..8, cycles in 5u64..25) {
        let d = Domain::build(size, 3, 1, 1, 0);
        lulesh::core::serial::run(&d, cycles).expect("stable");
        for &n in &d.m_symm_x {
            prop_assert_eq!(d.x(n as usize), 0.0, "x=0 plane node {} moved", n);
        }
        for &n in &d.m_symm_y {
            prop_assert_eq!(d.y(n as usize), 0.0);
        }
        for &n in &d.m_symm_z {
            prop_assert_eq!(d.z(n as usize), 0.0);
        }
    }

    /// Multi-domain decompositions agree with the single domain for any
    /// divisor rank count and seed.
    #[test]
    fn decomposition_invariance(ranks in 1usize..5, seed in 0u64..4) {
        let size = 8usize;
        if !size.is_multiple_of(ranks) {
            return Ok(());
        }
        let single = Domain::build(size, 3, 1, 1, seed);
        lulesh::core::serial::run(&single, 12).expect("stable");
        let mut world =
            multidom::World::build(multidom::Decomposition::new(size, ranks), 3, 1, 1, seed);
        world.run(12).expect("stable");
        let diff = world.max_difference_vs_single(&single);
        prop_assert!(diff < 1e-8, "ranks {}: diff {}", ranks, diff);
        prop_assert_eq!(world.interface_mismatch(), 0.0);
    }
}

#[test]
fn energy_balance_is_plausible() {
    // Total internal energy can convert to kinetic energy and back; the
    // sum should stay within a loose band of the deposited energy (the
    // discrete scheme with artificial viscosity is dissipative, not
    // conservative, so this is a sanity band, not an exact law).
    let d = Domain::build(8, 2, 1, 1, 0);
    let e0: Real = (0..d.num_elem())
        .map(|e| d.e(e) * d.elem_mass(e) / d.v(e))
        .sum();
    lulesh::core::serial::run(&d, 60).unwrap();
    let internal: Real = (0..d.num_elem())
        .map(|e| d.e(e) * d.elem_mass(e) / d.v(e))
        .sum();
    let kinetic: Real = (0..d.num_node())
        .map(|n| {
            0.5 * d.nodal_mass(n) * (d.xd(n) * d.xd(n) + d.yd(n) * d.yd(n) + d.zd(n) * d.zd(n))
        })
        .sum();
    let total = internal + kinetic;
    assert!(
        total > 0.2 * e0 && total < 1.5 * e0,
        "total {total:.3e} vs deposited {e0:.3e}"
    );
    assert!(kinetic > 0.0, "the blast must set the mesh in motion");
}
