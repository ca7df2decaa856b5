//! Element kinematics (`CalcKinematicsForElems` and the trailing loop of
//! `CalcLagrangeElements`): new relative volumes, characteristic lengths,
//! and the deviatoric strain rate.

use crate::domain::Domain;
use crate::kernels::shape::{
    calc_elem_shape_function_derivatives, calc_elem_velocity_gradient, gather_elem_coords_lanes,
    gather_elem_velocities_lanes,
};
use crate::kernels::volume::{calc_elem_characteristic_length, calc_elem_volume};
use crate::simd::{self, lane_groups, Lanes, SimdReal};
use crate::types::{Index, LuleshError, Real};
use parutil::Chunk;

/// Per element: new relative volume (`vnew`), volume change (`delv`),
/// characteristic length (`arealg`), and principal strain rates
/// (`dxx/dyy/dzz`) evaluated at the half-step geometry.
///
/// Dispatches on the process-wide SIMD width and the host's ISA
/// ([`simd::dispatch!`]); every arm, scalar included, is the same generic
/// body at a different `W`.
pub fn calc_kinematics_for_elems(d: &Domain, dt: Real, range: Chunk) {
    simd::dispatch!(
        calc_kinematics_for_elems_lanes / calc_kinematics_for_elems_avx2(d, dt, range),
        scalar: calc_kinematics_for_elems_lanes::<1>(d, dt, range)
    )
}

/// [`calc_kinematics_for_elems`] at a fixed lane width (`W = 1` is the
/// scalar reference).
#[inline(always)]
pub fn calc_kinematics_for_elems_lanes<const W: usize>(d: &Domain, dt: Real, range: Chunk) {
    lane_groups!(W, range.begin, range.end, |e| kinematics_lane_group
        / kinematics_tail(d, dt, e));
}

/// [`calc_kinematics_for_elems_lanes::<4>`] compiled for AVX2.
///
/// # Safety
/// The CPU must have AVX2 (`is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub fn calc_kinematics_for_elems_avx2(d: &Domain, dt: Real, range: Chunk) {
    calc_kinematics_for_elems_lanes::<4>(d, dt, range)
}

/// Elements `begin..end` one at a time: the ragged tail of every width and
/// the whole of `W = 1` (see [`lane_groups!`]).
#[inline(never)]
fn kinematics_tail(d: &Domain, dt: Real, begin: Index, end: Index) {
    for e in begin..end {
        kinematics_lane_group::<1>(d, dt, e);
    }
}

/// One group of `W` consecutive elements starting at `e0`.
#[inline(always)]
fn kinematics_lane_group<const W: usize>(d: &Domain, dt: Real, e0: Index) {
    let zero = Lanes::<W>::zero();
    let (mut x, mut y, mut z) = ([zero; 8], [zero; 8], [zero; 8]);
    gather_elem_coords_lanes(d, e0, &mut x, &mut y, &mut z);

    // Volume calculations.
    let volume = calc_elem_volume(&x, &y, &z);
    let relative_volume = volume / Lanes::gather(|l| d.volo(e0 + l));
    let delv = relative_volume - Lanes::gather(|l| d.v(e0 + l));

    // Characteristic length for time increment.
    let arealg = calc_elem_characteristic_length(&x, &y, &z, volume);

    let (mut xd, mut yd, mut zd) = ([zero; 8], [zero; 8], [zero; 8]);
    gather_elem_velocities_lanes(d, e0, &mut xd, &mut yd, &mut zd);

    // Move the geometry half a timestep back.
    let dt2 = Lanes::splat(0.5 * dt);
    for j in 0..8 {
        x[j] = x[j] - dt2 * xd[j];
        y[j] = y[j] - dt2 * yd[j];
        z[j] = z[j] - dt2 * zd[j];
    }

    let mut b = [[zero; 8]; 3];
    let detj = calc_elem_shape_function_derivatives(&x, &y, &z, &mut b);
    let dvg = calc_elem_velocity_gradient(&xd, &yd, &zd, &b, detj);

    for l in 0..W {
        let k = e0 + l;
        d.set_vnew(k, relative_volume.0[l]);
        d.set_delv(k, delv.0[l]);
        d.set_arealg(k, arealg.0[l]);
        d.set_dxx(k, dvg[0].0[l]);
        d.set_dyy(k, dvg[1].0[l]);
        d.set_dzz(k, dvg[2].0[l]);
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
}
