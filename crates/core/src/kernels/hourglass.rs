//! Flanagan-Belytschko hourglass control: `CalcHourglassControlForElems`,
//! `CalcFBHourglassForceForElems` and `CalcElemFBHourglassForce`.
//!
//! Two shapes of the same arithmetic. The reference's two passes
//! ([`calc_hourglass_control_for_elems`] then
//! [`calc_fb_hourglass_force_for_elems`]) stream 48 doubles per zone of
//! geometry (`dvdx/dvdy/dvdz`, `x8n/y8n/z8n`) through chunk-local scratch;
//! the fork-join driver and the unmerged task ablation keep that structure
//! on purpose. Every other driver runs the fused
//! [`calc_hourglass_force_for_elems`], whose temporaries never leave the
//! stack (paper trick T6 taken to the element) and which is the lane path.

// Indexed Γ-matrix loops and wide signatures mirror the reference kernels one-to-one.
#![allow(clippy::needless_range_loop, clippy::too_many_arguments)]
#![cfg_attr(test, allow(clippy::type_complexity))]
use crate::domain::Domain;
use crate::kernels::shape::{
    gather_elem_coords, gather_elem_coords_lanes, gather_elem_velocities,
    gather_elem_velocities_lanes, scatter_elem_corners_lanes,
};
use crate::kernels::volume::calc_elem_volume_derivative;
use crate::simd::{self, lane_groups, Lanes, SimdReal};
use crate::types::{Index, LuleshError, Real};
use parutil::Chunk;

/// The four hourglass base vectors Γ (`gamma` in the reference).
pub const GAMMA: [[Real; 8]; 4] = [
    [1.0, 1.0, -1.0, -1.0, -1.0, -1.0, 1.0, 1.0],
    [1.0, -1.0, -1.0, 1.0, -1.0, 1.0, 1.0, -1.0],
    [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0],
    [-1.0, 1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0],
];

/// First phase of hourglass control: per element, the volume derivatives at
/// the 8 corners, the corner coordinates (for reuse in phase two) and the
/// current absolute volume `determ = volo·v`. Reports a volume error when
/// any relative volume is non-positive.
#[allow(clippy::too_many_arguments)]
pub fn calc_hourglass_control_for_elems(
    d: &Domain,
    dvdx: &mut [Real],
    dvdy: &mut [Real],
    dvdz: &mut [Real],
    x8n: &mut [Real],
    y8n: &mut [Real],
    z8n: &mut [Real],
    determ: &mut [Real],
    range: Chunk,
) -> Result<(), LuleshError> {
    debug_assert_eq!(dvdx.len(), 8 * range.len());
    debug_assert_eq!(determ.len(), range.len());

    let mut x1 = [0.0; 8];
    let mut y1 = [0.0; 8];
    let mut z1 = [0.0; 8];
    let mut failed = false;

    for i in range.iter() {
        let k = i - range.begin;
        gather_elem_coords(d, i, &mut x1, &mut y1, &mut z1);
        let (pfx, pfy, pfz) = calc_elem_volume_derivative(&x1, &y1, &z1);

        let i3 = 8 * k;
        dvdx[i3..i3 + 8].copy_from_slice(&pfx);
        dvdy[i3..i3 + 8].copy_from_slice(&pfy);
        dvdz[i3..i3 + 8].copy_from_slice(&pfz);
        x8n[i3..i3 + 8].copy_from_slice(&x1);
        y8n[i3..i3 + 8].copy_from_slice(&y1);
        z8n[i3..i3 + 8].copy_from_slice(&z1);

        determ[k] = d.volo(i) * d.v(i);
        failed |= d.v(i) <= 0.0;
    }

    if failed {
        Err(LuleshError::VolumeError)
    } else {
        Ok(())
    }
}

/// `CalcElemFBHourglassForce`: project velocities onto the hourglass modes
/// and distribute the restoring force to the corners. Generic over the lane
/// type; the `V = f64` instantiation is the scalar reference.
#[inline(always)]
fn calc_elem_fb_hourglass_force<V: SimdReal>(
    xd: &[V; 8],
    yd: &[V; 8],
    zd: &[V; 8],
    hourgam: &[[V; 4]; 8],
    coefficient: V,
) -> ([V; 8], [V; 8], [V; 8]) {
    let mut hxx = [V::zero(); 4];
    let mut hyy = [V::zero(); 4];
    let mut hzz = [V::zero(); 4];
    for i in 0..4 {
        let mut sx = V::zero();
        let mut sy = V::zero();
        let mut sz = V::zero();
        for j in 0..8 {
            sx = sx + hourgam[j][i] * xd[j];
            sy = sy + hourgam[j][i] * yd[j];
            sz = sz + hourgam[j][i] * zd[j];
        }
        hxx[i] = sx;
        hyy[i] = sy;
        hzz[i] = sz;
    }
    let mut hgfx = [V::zero(); 8];
    let mut hgfy = [V::zero(); 8];
    let mut hgfz = [V::zero(); 8];
    for i in 0..8 {
        hgfx[i] = coefficient
            * (hourgam[i][0] * hxx[0]
                + hourgam[i][1] * hxx[1]
                + hourgam[i][2] * hxx[2]
                + hourgam[i][3] * hxx[3]);
        hgfy[i] = coefficient
            * (hourgam[i][0] * hyy[0]
                + hourgam[i][1] * hyy[1]
                + hourgam[i][2] * hyy[2]
                + hourgam[i][3] * hyy[3]);
        hgfz[i] = coefficient
            * (hourgam[i][0] * hzz[0]
                + hourgam[i][1] * hzz[1]
                + hourgam[i][2] * hzz[2]
                + hourgam[i][3] * hzz[3]);
    }
    (hgfx, hgfy, hgfz)
}

/// Element geometry the hourglass force is built from: corner coordinates,
/// their volume derivatives and the absolute volume `volo·v`.
struct HourglassGeometry<V> {
    x: [V; 8],
    y: [V; 8],
    z: [V; 8],
    dvdx: [V; 8],
    dvdy: [V; 8],
    dvdz: [V; 8],
    determ: V,
}

/// The per-element body of `CalcFBHourglassForceForElems`: Γ-projection of
/// the geometry (`hourgam`), force coefficient, corner forces. `c0` is the
/// hoisted scalar prefix `-hourg · 0.01` of the coefficient. The one body
/// behind both the two-pass path (`V = f64`, geometry read back from
/// scratch) and the fused kernel (`V = Lanes<W>`, geometry in registers).
#[inline(always)]
fn elem_hourglass_force<V: SimdReal>(
    g: &HourglassGeometry<V>,
    xd: &[V; 8],
    yd: &[V; 8],
    zd: &[V; 8],
    ss: V,
    mass: V,
    c0: Real,
) -> ([V; 8], [V; 8], [V; 8]) {
    let volinv = V::splat(1.0) / g.determ;
    let mut hourgam = [[V::zero(); 4]; 8];
    for i1 in 0..4 {
        let mut hourmodx = V::zero();
        let mut hourmody = V::zero();
        let mut hourmodz = V::zero();
        for j in 0..8 {
            let gamma = V::splat(GAMMA[i1][j]);
            hourmodx = hourmodx + g.x[j] * gamma;
            hourmody = hourmody + g.y[j] * gamma;
            hourmodz = hourmodz + g.z[j] * gamma;
        }
        for j in 0..8 {
            hourgam[j][i1] = V::splat(GAMMA[i1][j])
                - volinv * (g.dvdx[j] * hourmodx + g.dvdy[j] * hourmody + g.dvdz[j] * hourmodz);
        }
    }

    let volume13 = g.determ.cbrt();
    let coefficient = V::splat(c0) * ss * mass / volume13;
    calc_elem_fb_hourglass_force(xd, yd, zd, &hourgam, coefficient)
}

/// Second phase of the two-pass path: compute the FB hourglass restoring
/// forces per corner into chunk-local `f*_elem` arrays from the geometry
/// [`calc_hourglass_control_for_elems`] left in scratch. `hourg` is the
/// `hgcoef` parameter.
///
/// Scalar at every `--simd` width: a lane body here pays 48 strided
/// transposes per group to read the scratch back and measured slower than
/// this loop; the lane path is the fused [`calc_hourglass_force_for_elems`],
/// which never writes the scratch at all.
#[allow(clippy::too_many_arguments)]
pub fn calc_fb_hourglass_force_for_elems(
    d: &Domain,
    determ: &[Real],
    x8n: &[Real],
    y8n: &[Real],
    z8n: &[Real],
    dvdx: &[Real],
    dvdy: &[Real],
    dvdz: &[Real],
    hourg: Real,
    fx_elem: &mut [Real],
    fy_elem: &mut [Real],
    fz_elem: &mut [Real],
    range: Chunk,
) {
    debug_assert_eq!(fx_elem.len(), 8 * range.len());

    let c0 = -hourg * 0.01;
    let corners = |s: &[Real], i3: usize| -> [Real; 8] {
        s[i3..i3 + 8].try_into().expect("8 corners per element")
    };
    let mut xd1 = [0.0; 8];
    let mut yd1 = [0.0; 8];
    let mut zd1 = [0.0; 8];

    for i2 in range.iter() {
        let k = i2 - range.begin;
        let i3 = 8 * k;
        let g = HourglassGeometry {
            x: corners(x8n, i3),
            y: corners(y8n, i3),
            z: corners(z8n, i3),
            dvdx: corners(dvdx, i3),
            dvdy: corners(dvdy, i3),
            dvdz: corners(dvdz, i3),
            determ: determ[k],
        };
        gather_elem_velocities(d, i2, &mut xd1, &mut yd1, &mut zd1);
        let (hgfx, hgfy, hgfz) =
            elem_hourglass_force(&g, &xd1, &yd1, &zd1, d.ss(i2), d.elem_mass(i2), c0);

        fx_elem[i3..i3 + 8].copy_from_slice(&hgfx);
        fy_elem[i3..i3 + 8].copy_from_slice(&hgfy);
        fz_elem[i3..i3 + 8].copy_from_slice(&hgfz);
    }
}

/// The fused hourglass kernel: control and FB force in one pass per
/// element — gather the corner coordinates once, volume derivatives,
/// Γ-projection, force, per-corner store into chunk-local `f*_elem` — with
/// every temporary on the stack (paper trick T6 taken to the element).
/// Bit-identical to [`calc_hourglass_control_for_elems`] followed by
/// [`calc_fb_hourglass_force_for_elems`], including the volume error when
/// any relative volume is non-positive (the forces are still written).
///
/// Dispatches on the process-wide SIMD width and the host's ISA
/// (`simd::dispatch!`).
pub fn calc_hourglass_force_for_elems(
    d: &Domain,
    hourg: Real,
    fx_elem: &mut [Real],
    fy_elem: &mut [Real],
    fz_elem: &mut [Real],
    range: Chunk,
) -> Result<(), LuleshError> {
    simd::dispatch!(
        calc_hourglass_force_for_elems_lanes
            / calc_hourglass_force_for_elems_avx2(d, hourg, fx_elem, fy_elem, fz_elem, range),
        scalar: calc_hourglass_force_for_elems_lanes::<1>(d, hourg, fx_elem, fy_elem, fz_elem, range)
    )
}

/// [`calc_hourglass_force_for_elems`] at a fixed lane width (`W = 1` is
/// the scalar instantiation of the same body).
#[inline(always)]
pub fn calc_hourglass_force_for_elems_lanes<const W: usize>(
    d: &Domain,
    hourg: Real,
    fx_elem: &mut [Real],
    fy_elem: &mut [Real],
    fz_elem: &mut [Real],
    range: Chunk,
) -> Result<(), LuleshError> {
    debug_assert_eq!(fx_elem.len(), 8 * range.len());

    let c0 = -hourg * 0.01;
    let mut failed = false;
    lane_groups!(W, range.begin, range.end, |e| hourglass_lane_group
        / hourglass_tail(
            d,
            range.begin,
            e,
            c0,
            fx_elem,
            fy_elem,
            fz_elem,
            &mut failed
        ));
    if failed {
        Err(LuleshError::VolumeError)
    } else {
        Ok(())
    }
}

/// [`calc_hourglass_force_for_elems_lanes::<4>`] compiled for AVX2.
///
/// # Safety
/// The CPU must have AVX2 (`is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
pub fn calc_hourglass_force_for_elems_avx2(
    d: &Domain,
    hourg: Real,
    fx_elem: &mut [Real],
    fy_elem: &mut [Real],
    fz_elem: &mut [Real],
    range: Chunk,
) -> Result<(), LuleshError> {
    calc_hourglass_force_for_elems_lanes::<4>(d, hourg, fx_elem, fy_elem, fz_elem, range)
}

/// Elements `e0..end` one at a time: the ragged tail of every width and
/// the whole of `W = 1` (see [`lane_groups!`]).
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn hourglass_tail(
    d: &Domain,
    begin: Index,
    e0: Index,
    c0: Real,
    fx_elem: &mut [Real],
    fy_elem: &mut [Real],
    fz_elem: &mut [Real],
    failed: &mut bool,
    end: Index,
) {
    for e in e0..end {
        hourglass_lane_group::<1>(d, begin, e, c0, fx_elem, fy_elem, fz_elem, failed);
    }
}

/// One group of `W` consecutive elements starting at `e0` of the fused
/// kernel; sets `failed` when a lane's relative volume is non-positive.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn hourglass_lane_group<const W: usize>(
    d: &Domain,
    begin: Index,
    e0: Index,
    c0: Real,
    fx_elem: &mut [Real],
    fy_elem: &mut [Real],
    fz_elem: &mut [Real],
    failed: &mut bool,
) {
    let zero = Lanes::<W>::zero();
    let (mut x, mut y, mut z) = ([zero; 8], [zero; 8], [zero; 8]);
    gather_elem_coords_lanes(d, e0, &mut x, &mut y, &mut z);
    let (dvdx, dvdy, dvdz) = calc_elem_volume_derivative(&x, &y, &z);
    let v = Lanes::<W>::gather(|l| d.v(e0 + l));
    *failed |= v.0.iter().any(|&v| v <= 0.0);
    let g = HourglassGeometry {
        x,
        y,
        z,
        dvdx,
        dvdy,
        dvdz,
        determ: Lanes::gather(|l| d.volo(e0 + l)) * v,
    };

    let (mut xd, mut yd, mut zd) = ([zero; 8], [zero; 8], [zero; 8]);
    gather_elem_velocities_lanes(d, e0, &mut xd, &mut yd, &mut zd);
    let ss = Lanes::gather(|l| d.ss(e0 + l));
    let mass = Lanes::gather(|l| d.elem_mass(e0 + l));
    let (hgfx, hgfy, hgfz) = elem_hourglass_force(&g, &xd, &yd, &zd, ss, mass, c0);

    let k0 = e0 - begin;
    scatter_elem_corners_lanes(fx_elem, k0, &hgfx);
    scatter_elem_corners_lanes(fy_elem, k0, &hgfy);
    scatter_elem_corners_lanes(fz_elem, k0, &hgfz);
}

/// The volume check of [`calc_hourglass_control_for_elems`] alone, for a
/// step with hourglass control switched off (`hgcoef == 0`).
pub fn check_relative_volumes(d: &Domain, range: Chunk) -> Result<(), LuleshError> {
    if range.iter().any(|i| d.v(i) <= 0.0) {
        Err(LuleshError::VolumeError)
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parutil::Chunk;

    fn full(d: &Domain) -> Chunk {
        Chunk {
            begin: 0,
            end: d.num_elem(),
        }
    }

    fn scratch(
        n: usize,
    ) -> (
        Vec<Real>,
        Vec<Real>,
        Vec<Real>,
        Vec<Real>,
        Vec<Real>,
        Vec<Real>,
        Vec<Real>,
    ) {
        (
            vec![0.0; 8 * n],
            vec![0.0; 8 * n],
            vec![0.0; 8 * n],
            vec![0.0; 8 * n],
            vec![0.0; 8 * n],
            vec![0.0; 8 * n],
            vec![0.0; n],
        )
    }

    #[test]
    fn gamma_vectors_are_orthogonal_to_rigid_modes() {
        // Each Γ is orthogonal to the constant vector (translation mode)...
        for g in &GAMMA {
            assert_eq!(g.iter().sum::<Real>(), 0.0);
        }
        // ... and mutually orthogonal.
        for i in 0..4 {
            for j in i + 1..4 {
                let dot: Real = (0..8).map(|k| GAMMA[i][k] * GAMMA[j][k]).sum();
                assert_eq!(dot, 0.0, "Γ{i}·Γ{j}");
            }
        }
    }

    #[test]
    fn control_phase_records_geometry_and_volume() {
        let d = Domain::build(3, 1, 1, 1, 0);
        let n = d.num_elem();
        let (mut dvdx, mut dvdy, mut dvdz, mut x8n, mut y8n, mut z8n, mut determ) = scratch(n);
        calc_hourglass_control_for_elems(
            &d,
            &mut dvdx,
            &mut dvdy,
            &mut dvdz,
            &mut x8n,
            &mut y8n,
            &mut z8n,
            &mut determ,
            full(&d),
        )
        .unwrap();
        for e in 0..n {
            assert!((determ[e] - d.volo(e)).abs() < 1e-15);
        }
        // x8n holds the corner coordinates.
        assert_eq!(x8n[0], d.x(d.nodelist(0)[0] as Index));
        assert_eq!(y8n[3], d.y(d.nodelist(0)[3] as Index));
    }

    #[test]
    fn control_phase_detects_negative_volume() {
        let d = Domain::build(2, 1, 1, 1, 0);
        d.set_v(3, -0.1);
        let n = d.num_elem();
        let (mut dvdx, mut dvdy, mut dvdz, mut x8n, mut y8n, mut z8n, mut determ) = scratch(n);
        let r = calc_hourglass_control_for_elems(
            &d,
            &mut dvdx,
            &mut dvdy,
            &mut dvdz,
            &mut x8n,
            &mut y8n,
            &mut z8n,
            &mut determ,
            full(&d),
        );
        assert_eq!(r, Err(LuleshError::VolumeError));
    }

    #[test]
    fn zero_velocity_gives_zero_hourglass_force() {
        let d = Domain::build(3, 1, 1, 1, 0);
        let n = d.num_elem();
        for e in 0..n {
            d.set_ss(e, 1.0);
        }
        let (mut dvdx, mut dvdy, mut dvdz, mut x8n, mut y8n, mut z8n, mut determ) = scratch(n);
        calc_hourglass_control_for_elems(
            &d,
            &mut dvdx,
            &mut dvdy,
            &mut dvdz,
            &mut x8n,
            &mut y8n,
            &mut z8n,
            &mut determ,
            full(&d),
        )
        .unwrap();
        let mut fx = vec![1.0; 8 * n];
        let mut fy = vec![1.0; 8 * n];
        let mut fz = vec![1.0; 8 * n];
        calc_fb_hourglass_force_for_elems(
            &d,
            &determ,
            &x8n,
            &y8n,
            &z8n,
            &dvdx,
            &dvdy,
            &dvdz,
            3.0,
            &mut fx,
            &mut fy,
            &mut fz,
            full(&d),
        );
        assert!(fx.iter().all(|&f| f == 0.0));
        assert!(fy.iter().all(|&f| f == 0.0));
        assert!(fz.iter().all(|&f| f == 0.0));
    }

    #[test]
    fn rigid_translation_gives_zero_hourglass_force() {
        // Hourglass control must not resist rigid-body motion.
        let d = Domain::build(3, 1, 1, 1, 0);
        let n = d.num_elem();
        for e in 0..n {
            d.set_ss(e, 2.0);
        }
        for nn in 0..d.num_node() {
            d.set_xd(nn, 1.0);
            d.set_yd(nn, -0.5);
            d.set_zd(nn, 0.25);
        }
        let (mut dvdx, mut dvdy, mut dvdz, mut x8n, mut y8n, mut z8n, mut determ) = scratch(n);
        calc_hourglass_control_for_elems(
            &d,
            &mut dvdx,
            &mut dvdy,
            &mut dvdz,
            &mut x8n,
            &mut y8n,
            &mut z8n,
            &mut determ,
            full(&d),
        )
        .unwrap();
        let mut fx = vec![0.0; 8 * n];
        let mut fy = vec![0.0; 8 * n];
        let mut fz = vec![0.0; 8 * n];
        calc_fb_hourglass_force_for_elems(
            &d,
            &determ,
            &x8n,
            &y8n,
            &z8n,
            &dvdx,
            &dvdy,
            &dvdz,
            3.0,
            &mut fx,
            &mut fy,
            &mut fz,
            full(&d),
        );
        for f in fx.iter().chain(&fy).chain(&fz) {
            assert!(f.abs() < 1e-12, "rigid translation produced force {f}");
        }
    }

    #[test]
    fn hourglass_mode_velocity_is_damped() {
        // A velocity field proportional to Γ0 on one element must produce a
        // nonzero restoring force opposing it.
        let d = Domain::build(1, 1, 1, 1, 0);
        d.set_ss(0, 1.0);
        let nl: Vec<_> = d.nodelist(0).to_vec();
        for (c, &nn) in nl.iter().enumerate() {
            d.set_xd(nn as Index, GAMMA[0][c]);
        }
        let n = 1;
        let (mut dvdx, mut dvdy, mut dvdz, mut x8n, mut y8n, mut z8n, mut determ) = scratch(n);
        calc_hourglass_control_for_elems(
            &d,
            &mut dvdx,
            &mut dvdy,
            &mut dvdz,
            &mut x8n,
            &mut y8n,
            &mut z8n,
            &mut determ,
            full(&d),
        )
        .unwrap();
        let mut fx = vec![0.0; 8];
        let mut fy = vec![0.0; 8];
        let mut fz = vec![0.0; 8];
        calc_fb_hourglass_force_for_elems(
            &d,
            &determ,
            &x8n,
            &y8n,
            &z8n,
            &dvdx,
            &dvdy,
            &dvdz,
            3.0,
            &mut fx,
            &mut fy,
            &mut fz,
            full(&d),
        );
        // The force must oppose the hourglass velocity: f·v < 0.
        let dot: Real = (0..8).map(|c| fx[c] * GAMMA[0][c]).sum();
        assert!(
            dot < 0.0,
            "restoring force should oppose the mode, f·v = {dot}"
        );
    }

    #[test]
    fn chunked_matches_whole_mesh() {
        let d = Domain::build(3, 1, 1, 1, 0);
        let n = d.num_elem();
        for e in 0..n {
            d.set_ss(e, 0.5 + (e % 7) as Real * 0.1);
        }
        for nn in 0..d.num_node() {
            d.set_xd(nn, (nn as Real).sin());
            d.set_yd(nn, (nn as Real).cos());
            d.set_zd(nn, (nn as Real * 0.3).sin());
        }
        let (mut dvdx, mut dvdy, mut dvdz, mut x8n, mut y8n, mut z8n, mut determ) = scratch(n);
        calc_hourglass_control_for_elems(
            &d,
            &mut dvdx,
            &mut dvdy,
            &mut dvdz,
            &mut x8n,
            &mut y8n,
            &mut z8n,
            &mut determ,
            full(&d),
        )
        .unwrap();
        let mut fx1 = vec![0.0; 8 * n];
        let mut fy1 = vec![0.0; 8 * n];
        let mut fz1 = vec![0.0; 8 * n];
        calc_fb_hourglass_force_for_elems(
            &d,
            &determ,
            &x8n,
            &y8n,
            &z8n,
            &dvdx,
            &dvdy,
            &dvdz,
            3.0,
            &mut fx1,
            &mut fy1,
            &mut fz1,
            full(&d),
        );

        let mut fx2 = vec![0.0; 8 * n];
        let mut fy2 = vec![0.0; 8 * n];
        let mut fz2 = vec![0.0; 8 * n];
        for range in parutil::chunks_of(n, 5) {
            let len = range.len();
            let mut l = (
                vec![0.0; 8 * len],
                vec![0.0; 8 * len],
                vec![0.0; 8 * len],
                vec![0.0; 8 * len],
                vec![0.0; 8 * len],
                vec![0.0; 8 * len],
                vec![0.0; len],
            );
            calc_hourglass_control_for_elems(
                &d, &mut l.0, &mut l.1, &mut l.2, &mut l.3, &mut l.4, &mut l.5, &mut l.6, range,
            )
            .unwrap();
            calc_fb_hourglass_force_for_elems(
                &d,
                &l.6,
                &l.3,
                &l.4,
                &l.5,
                &l.0,
                &l.1,
                &l.2,
                3.0,
                &mut fx2[8 * range.begin..8 * range.end],
                &mut fy2[8 * range.begin..8 * range.end],
                &mut fz2[8 * range.begin..8 * range.end],
                range,
            );
        }
        assert_eq!(fx1, fx2);
        assert_eq!(fy1, fy2);
        assert_eq!(fz1, fz2);
    }
}
