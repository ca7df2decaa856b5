//! Bitwise scalar-vs-lane equivalence for every SIMD-ported kernel.
//!
//! Each test runs the scalar reference and every lane width on the same
//! state and compares outputs with `f64::to_bits` — not approximate
//! equality. Element counts are deliberately non-multiples of every width
//! (27 or 125 dense elements; region lists of odd lengths) so the
//! ragged-tail paths are always exercised. The references are the scalar
//! twin (stress, EOS), the reference's two-pass path (fused hourglass) and
//! a frozen copy of the pre-lane scalar body (kinematics).

use lulesh_core::kernels::{eos, hourglass, kinematics, stress};
use lulesh_core::simd::{self, LaneWidth};
use lulesh_core::types::Real;
use lulesh_core::{Domain, Params};
use parutil::Chunk;

/// Deterministically perturbed domain: 27 elements (3³), two regions,
/// mixed-sign pressures, viscosities and velocities.
fn seeded_domain() -> Domain {
    let d = Domain::build(3, 2, 1, 1, 0);
    for e in 0..d.num_elem() {
        d.set_p(e, (e as Real * 0.7).sin() * 0.1);
        d.set_q(e, (e as Real * 0.3).cos().abs() * 0.01);
        d.set_ss(e, 0.5 + (e as Real * 0.11).sin().abs());
    }
    for n in 0..d.num_node() {
        d.set_xd(n, (n as Real * 0.13).sin() * 0.02);
        d.set_yd(n, (n as Real * 0.29).cos() * 0.02);
        d.set_zd(n, (n as Real * 0.41).sin() * 0.02);
    }
    d
}

fn assert_bits_eq(a: &[Real], b: &[Real], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for i in 0..a.len() {
        assert_eq!(
            a[i].to_bits(),
            b[i].to_bits(),
            "{what}[{i}]: {} vs {}",
            a[i],
            b[i]
        );
    }
}

// ---------------------------------------------------------------- stress --

fn stress_lanes_case<const W: usize>(d: &Domain, range: Chunk) {
    let n = range.len();
    let mut sx = vec![0.0; n];
    let mut sy = vec![0.0; n];
    let mut sz = vec![0.0; n];
    stress::init_stress_terms_for_elems(d, &mut sx, &mut sy, &mut sz, range);

    let mut det1 = vec![0.0; n];
    let mut fx1 = vec![0.0; 8 * n];
    let mut fy1 = vec![0.0; 8 * n];
    let mut fz1 = vec![0.0; 8 * n];
    stress::integrate_stress_for_elems_scalar(
        d, &sx, &sy, &sz, &mut det1, &mut fx1, &mut fy1, &mut fz1, range,
    );

    let mut det2 = vec![0.0; n];
    let mut fx2 = vec![0.0; 8 * n];
    let mut fy2 = vec![0.0; 8 * n];
    let mut fz2 = vec![0.0; 8 * n];
    stress::integrate_stress_for_elems_lanes::<W>(
        d, &sx, &sy, &sz, &mut det2, &mut fx2, &mut fy2, &mut fz2, range,
    );

    assert_bits_eq(&det1, &det2, &format!("determ w{W}"));
    assert_bits_eq(&fx1, &fx2, &format!("fx_elem w{W}"));
    assert_bits_eq(&fy1, &fy2, &format!("fy_elem w{W}"));
    assert_bits_eq(&fz1, &fz2, &format!("fz_elem w{W}"));
}

#[test]
fn stress_every_width_matches_scalar_bitwise() {
    let d = seeded_domain();
    // 27 elements: ragged for every width; also a nonzero chunk begin
    // (19 elements: ragged again) to catch chunk-local offset bugs.
    let full = Chunk {
        begin: 0,
        end: d.num_elem(),
    };
    let off = Chunk {
        begin: 8,
        end: d.num_elem(),
    };
    for range in [full, off] {
        stress_lanes_case::<2>(&d, range);
        stress_lanes_case::<4>(&d, range);
        stress_lanes_case::<8>(&d, range);
    }
}

// ------------------------------------------------------------- hourglass --

/// A 5³ mesh 25 iterations into the blast: 125 elements (ragged at every
/// width), distorted geometry, nonzero velocities and sound speeds.
fn mid_blast_domain() -> Domain {
    let d = Domain::build(5, 2, 1, 1, 0);
    lulesh_core::serial::run(&d, 25).unwrap();
    d
}

type CornerForces = (Vec<Real>, Vec<Real>, Vec<Real>);

/// The reference's two passes (control, then FB force) through chunk-local
/// scratch: the scalar path the fused kernel must reproduce.
fn hourglass_two_pass(
    d: &Domain,
    hourg: Real,
    range: Chunk,
) -> (Result<(), lulesh_core::LuleshError>, CornerForces) {
    let n = range.len();
    let geom = || vec![0.0; 8 * n];
    let (mut dvdx, mut dvdy, mut dvdz) = (geom(), geom(), geom());
    let (mut x8n, mut y8n, mut z8n) = (geom(), geom(), geom());
    let mut determ = vec![0.0; n];
    let status = hourglass::calc_hourglass_control_for_elems(
        d,
        &mut dvdx,
        &mut dvdy,
        &mut dvdz,
        &mut x8n,
        &mut y8n,
        &mut z8n,
        &mut determ,
        range,
    );
    let (mut fx, mut fy, mut fz) = (geom(), geom(), geom());
    hourglass::calc_fb_hourglass_force_for_elems(
        d, &determ, &x8n, &y8n, &z8n, &dvdx, &dvdy, &dvdz, hourg, &mut fx, &mut fy, &mut fz, range,
    );
    (status, (fx, fy, fz))
}

fn fused_hourglass_case<const W: usize>(d: &Domain, range: Chunk) {
    let hourg = 3.0;
    let (status1, (fx1, fy1, fz1)) = hourglass_two_pass(d, hourg, range);

    let n = range.len();
    // Poisoned outputs: the fused kernel must write every corner slot.
    let mut fx2 = vec![Real::NAN; 8 * n];
    let mut fy2 = vec![Real::NAN; 8 * n];
    let mut fz2 = vec![Real::NAN; 8 * n];
    let status2 = hourglass::calc_hourglass_force_for_elems_lanes::<W>(
        d, hourg, &mut fx2, &mut fy2, &mut fz2, range,
    );

    assert_eq!(status1, status2, "fused hourglass status w{W}");
    assert_bits_eq(&fx1, &fx2, &format!("fused hg fx_elem w{W}"));
    assert_bits_eq(&fy1, &fy2, &format!("fused hg fy_elem w{W}"));
    assert_bits_eq(&fz1, &fz2, &format!("fused hg fz_elem w{W}"));
}

fn fused_hourglass_every_width(d: &Domain, range: Chunk) {
    fused_hourglass_case::<1>(d, range);
    fused_hourglass_case::<2>(d, range);
    fused_hourglass_case::<4>(d, range);
    fused_hourglass_case::<8>(d, range);
}

#[test]
fn fused_hourglass_every_width_matches_two_pass_bitwise() {
    let d = mid_blast_domain();
    let full = Chunk {
        begin: 0,
        end: d.num_elem(),
    };
    // A task-style chunk: nonzero begin (chunk-local slot = e - begin) and
    // a length (114) that leaves a ragged tail at every width.
    let off = Chunk {
        begin: 7,
        end: d.num_elem() - 4,
    };
    for range in [full, off] {
        fused_hourglass_every_width(&d, range);
    }
    // The dispatcher runs the same kernel at whatever width is active.
    let hourg = d.params.hgcoef;
    let (_, (fx1, fy1, fz1)) = hourglass_two_pass(&d, hourg, full);
    let poisoned = || vec![Real::NAN; 8 * d.num_elem()];
    let (mut fx2, mut fy2, mut fz2) = (poisoned(), poisoned(), poisoned());
    hourglass::calc_hourglass_force_for_elems(&d, hourg, &mut fx2, &mut fy2, &mut fz2, full)
        .unwrap();
    assert_bits_eq(&fx1, &fx2, "fused hg dispatcher fx_elem");
    assert_bits_eq(&fy1, &fy2, "fused hg dispatcher fy_elem");
    assert_bits_eq(&fz1, &fz2, "fused hg dispatcher fz_elem");
}

#[test]
fn fused_hourglass_reports_non_positive_volume_like_control() {
    use lulesh_core::LuleshError::VolumeError;
    let d = mid_blast_domain();
    let full = Chunk {
        begin: 0,
        end: d.num_elem(),
    };
    // An inverted element inside a lane group: both paths flag the error
    // and still write the same forces for every element.
    d.set_v(42, -0.25);
    assert_eq!(hourglass_two_pass(&d, 3.0, full).0, Err(VolumeError));
    fused_hourglass_every_width(&d, full);
    assert_eq!(
        hourglass::check_relative_volumes(&d, full),
        Err(VolumeError)
    );
    d.set_v(42, 1.0);
    assert_eq!(hourglass::check_relative_volumes(&d, full), Ok(()));

    // An exactly-zero volume in the ragged tail divides by zero: the forces
    // are non-finite garbage, but the kernel reports the error, not a panic.
    d.set_v(d.num_elem() - 1, 0.0);
    let corners = || vec![0.0; 8 * d.num_elem()];
    let (mut fx, mut fy, mut fz) = (corners(), corners(), corners());
    assert_eq!(
        hourglass::calc_hourglass_force_for_elems_lanes::<4>(
            &d, 3.0, &mut fx, &mut fy, &mut fz, full
        ),
        Err(VolumeError)
    );
}

// ------------------------------------------------------------ kinematics --

/// Frozen copy of the scalar `calc_kinematics_for_elems` body as it stood
/// before the kernel moved onto the lane engine (including the
/// `f64::max`-based characteristic length), kept as the reference.
fn frozen_scalar_kinematics(d: &Domain, dt: Real, range: Chunk) {
    use lulesh_core::kernels::shape::{
        calc_elem_shape_function_derivatives, calc_elem_velocity_gradient, gather_elem_coords,
        gather_elem_velocities,
    };
    use lulesh_core::kernels::volume::{area_face, calc_elem_volume};
    const FACES: [[usize; 4]; 6] = [
        [0, 1, 2, 3],
        [4, 5, 6, 7],
        [0, 1, 5, 4],
        [1, 2, 6, 5],
        [2, 3, 7, 6],
        [3, 0, 4, 7],
    ];
    let mut b = [[0.0; 8]; 3];
    let (mut x, mut y, mut z) = ([0.0; 8], [0.0; 8], [0.0; 8]);
    let (mut xd, mut yd, mut zd) = ([0.0; 8], [0.0; 8], [0.0; 8]);
    for k in range.iter() {
        gather_elem_coords(d, k, &mut x, &mut y, &mut z);
        let volume: Real = calc_elem_volume(&x, &y, &z);
        let relative_volume = volume / d.volo(k);
        d.set_vnew(k, relative_volume);
        d.set_delv(k, relative_volume - d.v(k));

        let mut char_length: Real = 0.0;
        for [i, j, m, n] in FACES {
            char_length = char_length.max(area_face(
                x[i], x[j], x[m], x[n], y[i], y[j], y[m], y[n], z[i], z[j], z[m], z[n],
            ));
        }
        d.set_arealg(k, 4.0 * volume / char_length.sqrt());

        gather_elem_velocities(d, k, &mut xd, &mut yd, &mut zd);
        let dt2 = 0.5 * dt;
        for j in 0..8 {
            x[j] -= dt2 * xd[j];
            y[j] -= dt2 * yd[j];
            z[j] -= dt2 * zd[j];
        }
        let detj = calc_elem_shape_function_derivatives(&x, &y, &z, &mut b);
        let dvg = calc_elem_velocity_gradient(&xd, &yd, &zd, &b, detj);
        d.set_dxx(k, dvg[0]);
        d.set_dyy(k, dvg[1]);
        d.set_dzz(k, dvg[2]);
    }
}

fn kinematics_outputs(d: &Domain) -> Vec<Real> {
    (0..d.num_elem())
        .flat_map(|i| {
            [
                d.vnew(i),
                d.delv(i),
                d.arealg(i),
                d.dxx(i),
                d.dyy(i),
                d.dzz(i),
            ]
        })
        .collect()
}

#[test]
fn kinematics_every_width_matches_frozen_scalar_bitwise() {
    let d = mid_blast_domain();
    let dt = 3.0e-4;
    let full = Chunk {
        begin: 0,
        end: d.num_elem(),
    };
    let off = Chunk {
        begin: 5,
        end: d.num_elem() - 2,
    };
    for range in [full, off] {
        frozen_scalar_kinematics(&d, dt, range);
        let reference = kinematics_outputs(&d);
        kinematics::calc_kinematics_for_elems_lanes::<1>(&d, dt, range);
        assert_bits_eq(&kinematics_outputs(&d), &reference, "kinematics w1");
        kinematics::calc_kinematics_for_elems_lanes::<2>(&d, dt, range);
        assert_bits_eq(&kinematics_outputs(&d), &reference, "kinematics w2");
        kinematics::calc_kinematics_for_elems_lanes::<4>(&d, dt, range);
        assert_bits_eq(&kinematics_outputs(&d), &reference, "kinematics w4");
        kinematics::calc_kinematics_for_elems_lanes::<8>(&d, dt, range);
        assert_bits_eq(&kinematics_outputs(&d), &reference, "kinematics w8");
        // The dispatcher, at whatever width is active.
        kinematics::calc_kinematics_for_elems(&d, dt, range);
        assert_bits_eq(&kinematics_outputs(&d), &reference, "kinematics dispatch");
    }
}

// ---------------------------------------------------------- force gather --

#[test]
fn single_force_gather_matches_set_then_add_bitwise() {
    // Real stress and hourglass corner forces of a mid-blast step.
    let d = mid_blast_domain();
    let n = d.num_elem();
    let full = Chunk { begin: 0, end: n };
    let nodes = Chunk {
        begin: 0,
        end: d.num_node(),
    };
    let (mut sx, mut sy, mut sz) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    stress::init_stress_terms_for_elems(&d, &mut sx, &mut sy, &mut sz, full);
    let mut determ = vec![0.0; n];
    let (mut ax, mut ay, mut az) = (vec![0.0; 8 * n], vec![0.0; 8 * n], vec![0.0; 8 * n]);
    stress::integrate_stress_for_elems(
        &d,
        &sx,
        &sy,
        &sz,
        &mut determ,
        &mut ax,
        &mut ay,
        &mut az,
        full,
    );
    let (_, (bx, by, bz)) = hourglass_two_pass(&d, d.params.hgcoef, full);

    let nodal = |d: &Domain| -> Vec<Real> {
        (0..d.num_node())
            .flat_map(|i| [d.fx(i), d.fy(i), d.fz(i)])
            .collect()
    };
    stress::zero_forces(&d, nodes);
    stress::gather_forces_set(&d, &ax, &ay, &az, nodes);
    stress::gather_forces_add(&d, &bx, &by, &bz, nodes);
    let reference = nodal(&d);
    stress::gather_forces_sum2(&d, &ax, &ay, &az, &bx, &by, &bz, nodes);
    assert_bits_eq(&nodal(&d), &reference, "nodal force");
}

// ------------------------------------------------------------------- eos --

/// EOS state designed to hit every branch: mixed-sign `delv` (the `q = 0`
/// expansion path), tiny and negative energies (`e_cut`/`emin`), and small
/// q terms (`q_cut`).
fn seed_eos_state(d: &Domain) {
    for e in 0..d.num_elem() {
        d.set_e(e, (e as Real * 0.37).sin() * 2.0);
        d.set_vnew(e, 0.6 + 0.5 * (e as Real * 0.17).cos().abs());
        d.set_delv(e, 0.2 * (e as Real * 0.53).sin());
        d.set_ql(e, (e as Real * 0.19).sin().abs() * 0.05);
        d.set_qq(e, (e as Real * 0.23).cos().abs() * 0.05);
    }
    d.set_e(1, 0.0); // exact zero: p_cut/e_cut paths
    d.set_e(2, -2.0e15); // emin floor
    d.set_delv(3, 0.0); // boundary of the delv > 0 branch
}

fn eos_outputs(d: &Domain) -> Vec<Real> {
    (0..d.num_elem())
        .flat_map(|i| [d.p(i), d.e(i), d.q(i), d.ss(i)])
        .collect()
}

fn eos_lanes_case<const W: usize>(rep: usize) {
    let d1 = seeded_domain();
    let d2 = seeded_domain();
    seed_eos_state(&d1);
    seed_eos_state(&d2);
    let p = Params::default();
    let vnewc: Vec<Real> = (0..d1.num_elem()).map(|e| d1.vnew(e)).collect();

    for r in 0..d1.num_reg() {
        let elems = &d1.regions.reg_elem_list[r];
        let mut s = eos::EosScratch::new(elems.len());
        eos::eval_eos_for_elems_scalar(&d1, &vnewc, elems, rep, &p, &mut s);
        eos::eval_eos_for_elems_lanes::<W>(&d2, &vnewc, elems, rep, &p);
    }
    assert_bits_eq(&eos_outputs(&d2), &eos_outputs(&d1), &format!("eos w{W}"));
}

#[test]
fn eos_every_width_matches_scalar_bitwise() {
    eos_lanes_case::<2>(1);
    eos_lanes_case::<4>(1);
    eos_lanes_case::<8>(1);
    // The rep loop re-runs the whole pipeline; results must not depend on it.
    eos_lanes_case::<4>(3);
}

// -------------------------------------------------------------- dispatch --

#[test]
fn entry_points_dispatch_on_global_width() {
    let d = seeded_domain();
    let n = d.num_elem();
    let range = Chunk { begin: 0, end: n };
    let mut sx = vec![0.0; n];
    let mut sy = vec![0.0; n];
    let mut sz = vec![0.0; n];
    stress::init_stress_terms_for_elems(&d, &mut sx, &mut sy, &mut sz, range);

    let mut det1 = vec![0.0; n];
    let mut fx1 = vec![0.0; 8 * n];
    let mut fy1 = vec![0.0; 8 * n];
    let mut fz1 = vec![0.0; 8 * n];
    stress::integrate_stress_for_elems_scalar(
        &d, &sx, &sy, &sz, &mut det1, &mut fx1, &mut fy1, &mut fz1, range,
    );

    let prior = simd::active();
    for w in LaneWidth::ALL {
        simd::set_active(w);
        let mut det2 = vec![0.0; n];
        let mut fx2 = vec![0.0; 8 * n];
        let mut fy2 = vec![0.0; 8 * n];
        let mut fz2 = vec![0.0; 8 * n];
        stress::integrate_stress_for_elems(
            &d, &sx, &sy, &sz, &mut det2, &mut fx2, &mut fy2, &mut fz2, range,
        );
        assert_bits_eq(&det1, &det2, &format!("dispatch determ {w}"));
        assert_bits_eq(&fx1, &fx2, &format!("dispatch fx {w}"));
    }
    simd::set_active(prior);
}
