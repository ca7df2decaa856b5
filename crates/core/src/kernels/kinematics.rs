//! Element kinematics (`CalcKinematicsForElems` and the trailing loop of
//! `CalcLagrangeElements`): new relative volumes, characteristic lengths,
//! and the deviatoric strain rate.

use crate::domain::{Domain, Field};
use crate::kernels::shape::{
    calc_elem_shape_function_derivatives, calc_elem_velocity_gradient, gather_elem_coords_lanes,
    gather_elem_velocities_lanes, load_lanes, store_lanes,
};
use crate::kernels::volume::{calc_elem_characteristic_length, calc_elem_volume};
use crate::simd::{self, LaneKernel, Pack};
use crate::types::{Index, LuleshError, Real};
use parutil::Chunk;

/// Per element: new relative volume (`vnew`), volume change (`delv`),
/// characteristic length (`arealg`), and principal strain rates
/// (`dxx/dyy/dzz`) evaluated at the half-step geometry.
///
/// Runs on the lane walk (`simd::walk`) at the process-wide SIMD width
/// and the host's ISA; every leg, scalar included, is the same `group`
/// body on a different pack.
pub fn calc_kinematics_for_elems(d: &Domain, dt: Real, range: Chunk) {
    simd::walk(&mut Kinematics { d, dt }, range.begin, range.end)
}

/// The arguments of [`calc_kinematics_for_elems`].
struct Kinematics<'a> {
    d: &'a Domain,
    dt: Real,
}

impl LaneKernel for Kinematics<'_> {
    #[inline(always)]
    fn group<P: Pack>(&mut self, e0: Index) {
        let Self { d, dt } = *self;
        let zero = P::zero();
        let (mut x, mut y, mut z) = ([zero; 8], [zero; 8], [zero; 8]);
        gather_elem_coords_lanes(d, e0, &mut x, &mut y, &mut z);

        // Volume calculations.
        let volume = calc_elem_volume(&x, &y, &z);
        let relative_volume = volume / load_lanes::<P>(d, Field::Volo, e0);
        let delv = relative_volume - load_lanes::<P>(d, Field::V, e0);

        // Characteristic length for time increment.
        let arealg = calc_elem_characteristic_length(&x, &y, &z, volume);

        let (mut xd, mut yd, mut zd) = ([zero; 8], [zero; 8], [zero; 8]);
        gather_elem_velocities_lanes(d, e0, &mut xd, &mut yd, &mut zd);

        // Move the geometry half a timestep back.
        let dt2 = P::splat(0.5 * dt);
        for j in 0..8 {
            x[j] = x[j] - dt2 * xd[j];
            y[j] = y[j] - dt2 * yd[j];
            z[j] = z[j] - dt2 * zd[j];
        }

        let mut b = [[zero; 8]; 3];
        let detj = calc_elem_shape_function_derivatives(&x, &y, &z, &mut b);
        let dvg = calc_elem_velocity_gradient(&xd, &yd, &zd, &b, detj);

        store_lanes(d, Field::Vnew, e0, relative_volume);
        store_lanes(d, Field::Delv, e0, delv);
        store_lanes(d, Field::Arealg, e0, arealg);
        store_lanes(d, Field::Dxx, e0, dvg[0]);
        store_lanes(d, Field::Dyy, e0, dvg[1]);
        store_lanes(d, Field::Dzz, e0, dvg[2]);
    }
}

/// Trailing loop of `CalcLagrangeElements`: `vdov` and the deviatoric
/// strain-rate adjustment; detects non-positive new volumes.
pub fn calc_lagrange_elements_finish(d: &Domain, range: Chunk) -> Result<(), LuleshError> {
    let mut failed = false;
    for k in range.iter() {
        // Calc strain rate and apply as constraint (only done in FB element).
        let vdov = d.dxx(k) + d.dyy(k) + d.dzz(k);
        let vdovthird = vdov / 3.0;

        // Make the rate of deformation tensor deviatoric.
        d.set_vdov(k, vdov);
        d.set_dxx(k, d.dxx(k) - vdovthird);
        d.set_dyy(k, d.dyy(k) - vdovthird);
        d.set_dzz(k, d.dzz(k) - vdovthird);

        failed |= d.vnew(k) <= 0.0;
    }
    if failed {
        Err(LuleshError::VolumeError)
    } else {
        Ok(())
    }
}

/// `UpdateVolumesForElems`: commit the new relative volumes, snapping values
/// within `v_cut` of 1 to exactly 1.
pub fn update_volumes_for_elems(d: &Domain, v_cut: Real, range: Chunk) {
    for i in range.iter() {
        let mut tmp_v = d.vnew(i);
        if (tmp_v - 1.0).abs() < v_cut {
            tmp_v = 1.0;
        }
        d.set_v(i, tmp_v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::testutil::{assert_bits_eq, mid_blast_domain};
    use crate::simd::Leg;

    fn elems(d: &Domain) -> Chunk {
        Chunk {
            begin: 0,
            end: d.num_elem(),
        }
    }

    #[test]
    fn static_mesh_has_unit_vnew_and_zero_strain() {
        let d = Domain::build(3, 1, 1, 1, 0);
        calc_kinematics_for_elems(&d, 1e-3, elems(&d));
        for k in 0..d.num_elem() {
            assert!((d.vnew(k) - 1.0).abs() < 1e-12);
            assert!(d.delv(k).abs() < 1e-12);
            assert!(d.dxx(k).abs() < 1e-14);
            assert!(d.dyy(k).abs() < 1e-14);
            assert!(d.dzz(k).abs() < 1e-14);
            // Characteristic length of a uniform hex = its edge length.
            let h = crate::params::MESH_EXTENT / 3.0;
            assert!((d.arealg(k) - h).abs() < 1e-12, "arealg = {}", d.arealg(k));
        }
        calc_lagrange_elements_finish(&d, elems(&d)).unwrap();
        for k in 0..d.num_elem() {
            assert!(d.vdov(k).abs() < 1e-14);
        }
    }

    #[test]
    fn uniform_expansion_strain_rates() {
        // v = c·(x,y,z): divergence is 3c, principal strains c each,
        // deviatoric part zero.
        let d = Domain::build(2, 1, 1, 1, 0);
        let c = 0.1;
        for n in 0..d.num_node() {
            d.set_xd(n, c * d.x(n));
            d.set_yd(n, c * d.y(n));
            d.set_zd(n, c * d.z(n));
        }
        // dt = 0 keeps the evaluation geometry at the current coordinates.
        calc_kinematics_for_elems(&d, 0.0, elems(&d));
        for k in 0..d.num_elem() {
            assert!((d.dxx(k) - c).abs() < 1e-12);
            assert!((d.dyy(k) - c).abs() < 1e-12);
            assert!((d.dzz(k) - c).abs() < 1e-12);
        }
        calc_lagrange_elements_finish(&d, elems(&d)).unwrap();
        for k in 0..d.num_elem() {
            assert!((d.vdov(k) - 3.0 * c).abs() < 1e-12);
            assert!(d.dxx(k).abs() < 1e-12, "deviatoric xx must vanish");
        }
    }

    #[test]
    fn compressed_element_shrinks_vnew() {
        let d = Domain::build(1, 1, 1, 1, 0);
        // Scale all coordinates by 0.5: volume shrinks 8×.
        for n in 0..d.num_node() {
            d.set_x(n, 0.5 * d.x(n));
            d.set_y(n, 0.5 * d.y(n));
            d.set_z(n, 0.5 * d.z(n));
        }
        calc_kinematics_for_elems(&d, 0.0, elems(&d));
        assert!((d.vnew(0) - 0.125).abs() < 1e-12);
        assert!((d.delv(0) + 0.875).abs() < 1e-12);
        assert!(calc_lagrange_elements_finish(&d, elems(&d)).is_ok());
    }

    #[test]
    fn update_volumes_commits_and_snaps() {
        let d = Domain::build(2, 1, 1, 1, 0);
        d.set_vnew(0, 1.0 + 1e-12);
        d.set_vnew(1, 0.5);
        update_volumes_for_elems(&d, 1e-10, elems(&d));
        assert_eq!(d.v(0), 1.0, "within v_cut snaps to exactly 1");
        assert_eq!(d.v(1), 0.5);
    }

    #[test]
    fn inverted_element_detected() {
        let d = Domain::build(1, 1, 1, 1, 0);
        // Collapse the element through zero volume by reflecting the top.
        for n in 0..d.num_node() {
            d.set_z(n, -2.0 * d.z(n));
        }
        calc_kinematics_for_elems(&d, 0.0, elems(&d));
        assert_eq!(
            calc_lagrange_elements_finish(&d, elems(&d)),
            Err(LuleshError::VolumeError)
        );
    }

    /// Frozen copy of the scalar `calc_kinematics_for_elems` body as it
    /// stood before the kernel moved onto the lane engine (including the
    /// `f64::max`-based characteristic length), kept as the reference.
    fn frozen_scalar_kinematics(d: &Domain, dt: Real, range: Chunk) {
        use crate::kernels::shape::{gather_elem_coords, gather_elem_velocities};
        use crate::kernels::volume::area_face;
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

    fn outputs(d: &Domain) -> Vec<Real> {
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

    /// NaN in all six outputs of every element of `range`: the kernel
    /// must write each of them.
    fn poison(d: &Domain, range: Chunk) {
        for e in range.iter() {
            for set in [
                Domain::set_vnew,
                Domain::set_delv,
                Domain::set_arealg,
                Domain::set_dxx,
                Domain::set_dyy,
                Domain::set_dzz,
            ] {
                set(d, e, Real::NAN);
            }
        }
    }

    #[test]
    fn every_leg_matches_frozen_scalar_bitwise() {
        let d = mid_blast_domain();
        let dt = 3.0e-4;
        let off = Chunk {
            begin: 5,
            end: d.num_elem() - 2,
        };
        for range in [elems(&d), off] {
            frozen_scalar_kinematics(&d, dt, range);
            let reference = outputs(&d);
            for leg in Leg::all() {
                poison(&d, range);
                leg.walk(&mut Kinematics { d: &d, dt }, range.begin, range.end);
                assert_bits_eq(&outputs(&d), &reference, &format!("kinematics {leg}"));
            }
            // The dispatcher, at whatever width is active.
            poison(&d, range);
            calc_kinematics_for_elems(&d, dt, range);
            assert_bits_eq(&outputs(&d), &reference, "kinematics dispatch");
        }
    }
}
