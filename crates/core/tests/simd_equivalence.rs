//! Bitwise scalar-vs-lane equivalence for every SIMD-ported kernel.
//!
//! Each test runs the scalar reference and every fixed-(width, ISA) entry
//! point — `*_lanes::<1|2|4|8>` (the portable `Lanes<W>` body), and the
//! `*_avx2` entry, the same body on the crate's `__m256d` pack, where the
//! CPU has AVX2 (a skip line where not) — on the same state and compares
//! outputs with `f64::to_bits`, not approximate equality. So each kernel's
//! `*_avx2` ≡ `*_lanes::<4>` ≡ scalar chain is checked leg by leg.
//! Element counts are deliberately non-multiples of every width (27 or
//! 125 dense elements; region lists of odd lengths) so the ragged-tail
//! paths are always exercised. The references are the scalar
//! twin (stress, EOS), the reference's two-pass path (fused hourglass) and
//! a frozen copy of the pre-lane scalar body (kinematics).

use lulesh_core::kernels::{eos, hourglass, kinematics, stress};
use lulesh_core::simd::{self, LaneWidth, Lanes, SimdReal};
use lulesh_core::types::{Index, Real};
use lulesh_core::{Domain, LuleshError, Params};
use parutil::Chunk;

/// `[(label, entry point)]` of one lane kernel as `$ty` fn pointers:
/// `$m::$lanes::<1|2|4|8>`, then `$m::$avx2` behind a closure taking
/// `|$a, ..|` where AVX2 is detected.
macro_rules! entry_points {
    ($ty:ty, $m:ident::$lanes:ident / $avx2:ident, |$($a:ident),*|) => {{
        let mut v: Vec<(&'static str, $ty)> = vec![
            ("w1", $m::$lanes::<1>),
            ("w2", $m::$lanes::<2>),
            ("w4", $m::$lanes::<4>),
            ("w8", $m::$lanes::<8>),
        ];
        let avx2 = simd::Isa::detect(LaneWidth::W4) == simd::Isa::Avx2;
        #[cfg(target_arch = "x86_64")]
        if avx2 {
            // SAFETY: `Isa::detect` found AVX2, the one feature the entry
            // point is compiled with, on this CPU.
            let f: $ty = |$($a),*| unsafe { $m::$avx2($($a),*) };
            v.push(("w4/avx2", f));
        }
        if !avx2 {
            println!("skip: no AVX2 on this host, {} not run", stringify!($avx2));
        }
        v
    }};
}

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

type StressKernel = fn(
    &Domain,
    &[Real],
    &[Real],
    &[Real],
    &mut [Real],
    &mut [Real],
    &mut [Real],
    &mut [Real],
    Chunk,
);

fn stress_case(d: &Domain, range: Chunk, w: &str, kernel: StressKernel) {
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

    // Poisoned outputs: the kernel must write every slot.
    let mut det2 = vec![Real::NAN; n];
    let mut fx2 = vec![Real::NAN; 8 * n];
    let mut fy2 = vec![Real::NAN; 8 * n];
    let mut fz2 = vec![Real::NAN; 8 * n];
    kernel(
        d, &sx, &sy, &sz, &mut det2, &mut fx2, &mut fy2, &mut fz2, range,
    );

    assert_bits_eq(&det1, &det2, &format!("determ {w}"));
    assert_bits_eq(&fx1, &fx2, &format!("fx_elem {w}"));
    assert_bits_eq(&fy1, &fy2, &format!("fy_elem {w}"));
    assert_bits_eq(&fz1, &fz2, &format!("fz_elem {w}"));
}

#[test]
fn stress_every_width_matches_scalar_bitwise() {
    let kernels = entry_points!(
        StressKernel,
        stress::integrate_stress_for_elems_lanes / integrate_stress_for_elems_avx2,
        |d, sx, sy, sz, det, fx, fy, fz, range|
    );
    // 27 and 125 elements: ragged for every width; also a nonzero chunk
    // begin (19 and 114 elements: ragged again) to catch chunk-local offset
    // bugs, on flat and on blast-distorted geometry.
    for (d, begin, trim) in [(seeded_domain(), 8, 0), (mid_blast_domain(), 7, 4)] {
        let full = Chunk {
            begin: 0,
            end: d.num_elem(),
        };
        let off = Chunk {
            begin,
            end: d.num_elem() - trim,
        };
        for range in [full, off] {
            for &(w, kernel) in &kernels {
                stress_case(&d, range, w, kernel);
            }
        }
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
) -> (Result<(), LuleshError>, CornerForces) {
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

type HourglassKernel =
    fn(&Domain, Real, &mut [Real], &mut [Real], &mut [Real], Chunk) -> Result<(), LuleshError>;

fn hourglass_kernels() -> Vec<(&'static str, HourglassKernel)> {
    entry_points!(
        HourglassKernel,
        hourglass::calc_hourglass_force_for_elems_lanes / calc_hourglass_force_for_elems_avx2,
        |d, hourg, fx, fy, fz, range|
    )
}

fn fused_hourglass_every_width(d: &Domain, range: Chunk) {
    let hourg = 3.0;
    let (status1, (fx1, fy1, fz1)) = hourglass_two_pass(d, hourg, range);
    let n = range.len();
    for (w, kernel) in hourglass_kernels() {
        // Poisoned outputs: the fused kernel must write every corner slot.
        let mut fx2 = vec![Real::NAN; 8 * n];
        let mut fy2 = vec![Real::NAN; 8 * n];
        let mut fz2 = vec![Real::NAN; 8 * n];
        let status2 = kernel(d, hourg, &mut fx2, &mut fy2, &mut fz2, range);

        assert_eq!(status1, status2, "fused hourglass status {w}");
        assert_bits_eq(&fx1, &fx2, &format!("fused hg fx_elem {w}"));
        assert_bits_eq(&fy1, &fy2, &format!("fused hg fy_elem {w}"));
        assert_bits_eq(&fz1, &fz2, &format!("fused hg fz_elem {w}"));
    }
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
    use LuleshError::VolumeError;
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
    for (w, kernel) in hourglass_kernels() {
        let (mut fx, mut fy, mut fz) = (corners(), corners(), corners());
        assert_eq!(
            kernel(&d, 3.0, &mut fx, &mut fy, &mut fz, full),
            Err(VolumeError),
            "zero volume in the tail, {w}"
        );
    }
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
    let kernels = entry_points!(
        fn(&Domain, Real, Chunk),
        kinematics::calc_kinematics_for_elems_lanes / calc_kinematics_for_elems_avx2,
        |d, dt, range|
    );
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
        for &(w, kernel) in &kernels {
            // Poisoned outputs: the kernel must write all six per element.
            for e in range.iter() {
                d.set_vnew(e, Real::NAN);
                d.set_delv(e, Real::NAN);
                d.set_arealg(e, Real::NAN);
                d.set_dxx(e, Real::NAN);
                d.set_dyy(e, Real::NAN);
                d.set_dzz(e, Real::NAN);
            }
            kernel(&d, dt, range);
            assert_bits_eq(
                &kinematics_outputs(&d),
                &reference,
                &format!("kinematics {w}"),
            );
        }
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

type EosKernel = fn(&Domain, &[Real], &[Index], usize, &Params);

fn eos_case(w: &str, kernel: EosKernel, rep: usize) {
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
        kernel(&d2, &vnewc, elems, rep, &p);
    }
    assert_bits_eq(
        &eos_outputs(&d2),
        &eos_outputs(&d1),
        &format!("eos {w} rep {rep}"),
    );
}

#[test]
fn eos_every_width_matches_scalar_bitwise() {
    let mut kernels = entry_points!(
        EosKernel,
        eos::eval_eos_for_elems_lanes / eval_eos_for_elems_avx2,
        |d, vnewc, elems, rep, p|
    );
    // The dispatcher, at whatever width is active.
    kernels.push(("dispatch", |d, vnewc, elems, rep, p| {
        eos::eval_eos_for_elems(d, vnewc, elems, rep, p, &mut eos::EosScratch::new(0))
    }));
    // The rep loop re-runs the whole pipeline; results must not depend on it.
    for rep in [1, 3] {
        for &(w, kernel) in &kernels {
            eos_case(w, kernel, rep);
        }
    }
}

#[test]
fn eos_rep_zero_stores_fresh_zeros_whatever_the_scratch_held() {
    // `rep == 0` evaluates nothing and stores the scratch: a pooled scratch
    // must behave like a fresh one, at every width (all route to scalar).
    let d = seeded_domain();
    seed_eos_state(&d);
    let p = Params::default();
    let vnewc: Vec<Real> = (0..d.num_elem()).map(|e| d.vnew(e)).collect();
    let elems = &d.regions.reg_elem_list[0];
    let mut s = eos::EosScratch::new(elems.len());
    eos::eval_eos_for_elems_scalar(&d, &vnewc, elems, 1, &p, &mut s);
    assert!(elems.iter().any(|&z| d.e(z) != 0.0), "scratch left dirty");
    eos::eval_eos_for_elems(&d, &vnewc, elems, 0, &p, &mut s);
    for &z in elems {
        assert_eq!((d.p(z), d.e(z), d.q(z)), (0.0, 0.0, 0.0), "element {z}");
    }
}

// ------------------------------------------------------------- lane ops --

/// Every `SimdReal` operation on one pair of values.
#[inline(always)]
fn simd_ops<V: SimdReal>(a: V, b: V) -> [V; 12] {
    [
        a + b,
        a - b,
        a * b,
        a / b,
        -a,
        a.sqrt(),
        a.cbrt(),
        a.abs(),
        a.select_lt(b, a, b),
        a.select_le(b, a, b),
        a.select_gt(b, a, b),
        a.select_ge(b, a, b),
    ]
}

/// The portable `Lanes<4>` ops, as the baseline w4 body runs them (also the
/// fallback for `--simd w4` on a CPU without AVX2). The `*_avx2` kernels
/// run the crate-private AVX2 pack instead, whose ops are checked the same
/// way by `simd::tests::avx2_pack_ops_match_scalar_bitwise`; `Lanes<4>`
/// compiled under AVX2 is no kernel's code, so it is not tested here.
#[test]
fn lane_ops_match_scalar_bitwise_on_non_finite_inputs() {
    // NaN (one operand at a time: which payload survives NaN ∘ NaN is not
    // defined), infinities of both signs, signed zeros, a subnormal, and
    // the invalid operations ∞ − ∞, 0 · ∞, 0 / 0, √−1 that make fresh NaNs.
    let inf = Real::INFINITY;
    let xs = [Real::NAN, inf, -inf, 0.0, -0.0, 4.9e-324, -1.0, 2.5];
    let ys = [1.5, inf, inf, inf, 0.0, -0.0, Real::NAN, -inf];
    for (xs, ys) in [(xs, ys), (ys, xs)] {
        for g in [0, 4] {
            // black_box: compare run-time arithmetic, not LLVM's folding.
            let lane =
                |v: &[Real; 8]| Lanes(std::hint::black_box([v[g], v[g + 1], v[g + 2], v[g + 3]]));
            let packed = simd_ops(lane(&xs), lane(&ys));
            for l in 0..4 {
                let (x, y) = std::hint::black_box((xs[g + l], ys[g + l]));
                for (op, scalar) in simd_ops(x, y).into_iter().enumerate() {
                    assert_eq!(
                        packed[op].0[l].to_bits(),
                        scalar.to_bits(),
                        "op {op} on ({x}, {y}): {} vs {scalar}",
                        packed[op].0[l]
                    );
                }
            }
        }
    }
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
