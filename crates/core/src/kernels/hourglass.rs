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
use crate::domain::{Domain, Field};
use crate::kernels::shape::{
    gather_elem_coords, gather_elem_coords_lanes, gather_elem_velocities,
    gather_elem_velocities_lanes, load_lanes, scatter_elem_corners_lanes,
};
use crate::kernels::volume::calc_elem_volume_derivative;
use crate::simd::{self, LaneKernel, Pack, SimdReal};
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

/// Hourglass mode `i1` of the geometry: `Σ_j Γ[i1][j]·(x, y, z)[j]`.
#[inline(always)]
fn hourglass_mode<V: SimdReal>(g: &HourglassGeometry<V>, i1: usize) -> [V; 3] {
    let mut hourmodx = V::zero();
    let mut hourmody = V::zero();
    let mut hourmodz = V::zero();
    for j in 0..8 {
        let gamma = V::splat(GAMMA[i1][j]);
        hourmodx = hourmodx + g.x[j] * gamma;
        hourmody = hourmody + g.y[j] * gamma;
        hourmodz = hourmodz + g.z[j] * gamma;
    }
    [hourmodx, hourmody, hourmodz]
}

/// Row `j` of `hourgam`: `Γ[i1][j] − volinv·(∇V[j] · mode i1)` per mode.
#[inline(always)]
fn hourgam_row<V: SimdReal>(
    g: &HourglassGeometry<V>,
    volinv: V,
    modes: &[[V; 3]; 4],
    j: usize,
) -> [V; 4] {
    let mut row = [V::zero(); 4];
    for i1 in 0..4 {
        let [hourmodx, hourmody, hourmodz] = modes[i1];
        row[i1] = V::splat(GAMMA[i1][j])
            - volinv * (g.dvdx[j] * hourmodx + g.dvdy[j] * hourmody + g.dvdz[j] * hourmodz);
    }
    row
}

/// The per-element body of `CalcFBHourglassForceForElems`: Γ-projection of
/// the geometry (`hourgam`), force coefficient, corner forces. `c0` is the
/// hoisted scalar prefix `-hourg · 0.01` of the coefficient. The one body
/// behind both the two-pass path (`V = f64`, geometry read back from
/// scratch) and the fused kernel (`V` a lane pack, geometry in registers).
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
    // Built from constant-index calls rather than zeroed and filled in a
    // loop, so the AVX2 body makes no `memset` call per group.
    let m = [
        hourglass_mode(g, 0),
        hourglass_mode(g, 1),
        hourglass_mode(g, 2),
        hourglass_mode(g, 3),
    ];
    let hourgam = [
        hourgam_row(g, volinv, &m, 0),
        hourgam_row(g, volinv, &m, 1),
        hourgam_row(g, volinv, &m, 2),
        hourgam_row(g, volinv, &m, 3),
        hourgam_row(g, volinv, &m, 4),
        hourgam_row(g, volinv, &m, 5),
        hourgam_row(g, volinv, &m, 6),
        hourgam_row(g, volinv, &m, 7),
    ];

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
/// Runs on the lane walk (`simd::walk`) at the process-wide SIMD width
/// and the host's ISA.
pub fn calc_hourglass_force_for_elems(
    d: &Domain,
    hourg: Real,
    fx_elem: &mut [Real],
    fy_elem: &mut [Real],
    fz_elem: &mut [Real],
    range: Chunk,
) -> Result<(), LuleshError> {
    let mut k = Hourglass::new(d, hourg, fx_elem, fy_elem, fz_elem, range);
    simd::walk(&mut k, range.begin, range.end);
    k.status()
}

/// The arguments of [`calc_hourglass_force_for_elems`] and its volume
/// error flag; the chunk-local slot of element `e` is `e - begin`.
struct Hourglass<'a> {
    d: &'a Domain,
    begin: Index,
    /// The hoisted scalar prefix `-hourg · 0.01` of the force coefficient.
    c0: Real,
    fx_elem: &'a mut [Real],
    fy_elem: &'a mut [Real],
    fz_elem: &'a mut [Real],
    failed: bool,
}

impl<'a> Hourglass<'a> {
    fn new(
        d: &'a Domain,
        hourg: Real,
        fx_elem: &'a mut [Real],
        fy_elem: &'a mut [Real],
        fz_elem: &'a mut [Real],
        range: Chunk,
    ) -> Self {
        debug_assert_eq!(fx_elem.len(), 8 * range.len());
        Self {
            d,
            begin: range.begin,
            c0: -hourg * 0.01,
            fx_elem,
            fy_elem,
            fz_elem,
            failed: false,
        }
    }

    /// The volume error once some walked element had a non-positive
    /// relative volume.
    fn status(&self) -> Result<(), LuleshError> {
        if self.failed {
            Err(LuleshError::VolumeError)
        } else {
            Ok(())
        }
    }
}

impl LaneKernel for Hourglass<'_> {
    /// The fused kernel on one group; flags `failed` when a lane's
    /// relative volume is non-positive.
    #[inline(always)]
    fn group<P: Pack>(&mut self, e0: Index) {
        let d = self.d;
        let zero = P::zero();
        let (mut x, mut y, mut z) = ([zero; 8], [zero; 8], [zero; 8]);
        gather_elem_coords_lanes(d, e0, &mut x, &mut y, &mut z);
        let (dvdx, dvdy, dvdz) = calc_elem_volume_derivative(&x, &y, &z);
        let v = load_lanes::<P>(d, Field::V, e0);
        for l in 0..P::LANES {
            self.failed |= v.lane(l) <= 0.0;
        }
        let g = HourglassGeometry {
            x,
            y,
            z,
            dvdx,
            dvdy,
            dvdz,
            determ: load_lanes::<P>(d, Field::Volo, e0) * v,
        };

        let (mut xd, mut yd, mut zd) = ([zero; 8], [zero; 8], [zero; 8]);
        gather_elem_velocities_lanes(d, e0, &mut xd, &mut yd, &mut zd);
        let ss = load_lanes(d, Field::Ss, e0);
        let mass = load_lanes(d, Field::ElemMass, e0);
        let (hgfx, hgfy, hgfz) = elem_hourglass_force(&g, &xd, &yd, &zd, ss, mass, self.c0);

        let k0 = e0 - self.begin;
        scatter_elem_corners_lanes(self.fx_elem, k0, &hgfx);
        scatter_elem_corners_lanes(self.fy_elem, k0, &hgfy);
        scatter_elem_corners_lanes(self.fz_elem, k0, &hgfz);
    }
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
    use crate::kernels::stress;
    use crate::kernels::testutil::{assert_bits_eq, mid_blast_domain};
    use crate::simd::Leg;

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

    type CornerForces = (Vec<Real>, Vec<Real>, Vec<Real>);

    /// The reference's two passes (control, then FB force) through
    /// chunk-local scratch: the scalar path the fused kernel must reproduce.
    fn two_pass(d: &Domain, hourg: Real, range: Chunk) -> (Result<(), LuleshError>, CornerForces) {
        let n = range.len();
        let (mut dvdx, mut dvdy, mut dvdz, mut x8n, mut y8n, mut z8n, mut determ) = scratch(n);
        let status = calc_hourglass_control_for_elems(
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
        let (mut fx, mut fy, mut fz) = (vec![0.0; 8 * n], vec![0.0; 8 * n], vec![0.0; 8 * n]);
        calc_fb_hourglass_force_for_elems(
            d, &determ, &x8n, &y8n, &z8n, &dvdx, &dvdy, &dvdz, hourg, &mut fx, &mut fy, &mut fz,
            range,
        );
        (status, (fx, fy, fz))
    }

    /// The fused kernel on `leg` into NaN-poisoned corner arrays.
    fn fused(
        leg: Leg,
        d: &Domain,
        hourg: Real,
        range: Chunk,
    ) -> (Result<(), LuleshError>, CornerForces) {
        let poisoned = || vec![Real::NAN; 8 * range.len()];
        let (mut fx, mut fy, mut fz) = (poisoned(), poisoned(), poisoned());
        let mut k = Hourglass::new(d, hourg, &mut fx, &mut fy, &mut fz, range);
        leg.walk(&mut k, range.begin, range.end);
        (k.status(), (fx, fy, fz))
    }

    /// Every walk leg against the two passes, bit for bit: the fused
    /// kernel must write every corner slot and report the same status.
    fn fused_every_leg_matches_two_pass(d: &Domain, range: Chunk) {
        let hourg = 3.0;
        let (status1, (fx1, fy1, fz1)) = two_pass(d, hourg, range);
        for leg in Leg::all() {
            let (status2, (fx2, fy2, fz2)) = fused(leg, d, hourg, range);
            assert_eq!(status1, status2, "fused hourglass status {leg}");
            assert_bits_eq(&fx1, &fx2, &format!("fused hg fx_elem {leg}"));
            assert_bits_eq(&fy1, &fy2, &format!("fused hg fy_elem {leg}"));
            assert_bits_eq(&fz1, &fz2, &format!("fused hg fz_elem {leg}"));
        }
    }

    #[test]
    fn fused_every_leg_matches_two_pass_bitwise() {
        let d = mid_blast_domain();
        // A task-style chunk too: nonzero begin (chunk-local slot =
        // e - begin) and a length (114) ragged at every width.
        let off = Chunk {
            begin: 7,
            end: d.num_elem() - 4,
        };
        for range in [full(&d), off] {
            fused_every_leg_matches_two_pass(&d, range);
        }
        // The dispatcher runs the same kernel at whatever width is active.
        let hourg = d.params.hgcoef;
        let (_, (fx1, fy1, fz1)) = two_pass(&d, hourg, full(&d));
        let poisoned = || vec![Real::NAN; 8 * d.num_elem()];
        let (mut fx2, mut fy2, mut fz2) = (poisoned(), poisoned(), poisoned());
        calc_hourglass_force_for_elems(&d, hourg, &mut fx2, &mut fy2, &mut fz2, full(&d)).unwrap();
        assert_bits_eq(&fx1, &fx2, "fused hg dispatcher fx_elem");
        assert_bits_eq(&fy1, &fy2, "fused hg dispatcher fy_elem");
        assert_bits_eq(&fz1, &fz2, "fused hg dispatcher fz_elem");
    }

    #[test]
    fn fused_reports_non_positive_volume_like_control() {
        use LuleshError::VolumeError;
        let d = mid_blast_domain();
        // An inverted element inside a lane group: both paths flag the
        // error and still write the same forces for every element.
        d.set_v(42, -0.25);
        assert_eq!(two_pass(&d, 3.0, full(&d)).0, Err(VolumeError));
        fused_every_leg_matches_two_pass(&d, full(&d));
        assert_eq!(check_relative_volumes(&d, full(&d)), Err(VolumeError));
        d.set_v(42, 1.0);
        assert_eq!(check_relative_volumes(&d, full(&d)), Ok(()));

        // An exactly-zero volume in the ragged tail divides by zero: the
        // forces are non-finite garbage, but the kernel reports the error,
        // not a panic.
        d.set_v(d.num_elem() - 1, 0.0);
        for leg in Leg::all() {
            let status = fused(leg, &d, 3.0, full(&d)).0;
            assert_eq!(status, Err(VolumeError), "zero volume in the tail, {leg}");
        }
    }

    #[test]
    fn single_force_gather_matches_set_then_add_bitwise() {
        // Real stress and hourglass corner forces of a mid-blast step.
        let d = mid_blast_domain();
        let n = d.num_elem();
        let nodes = Chunk {
            begin: 0,
            end: d.num_node(),
        };
        let (mut sx, mut sy, mut sz) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        stress::init_stress_terms_for_elems(&d, &mut sx, &mut sy, &mut sz, full(&d));
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
            full(&d),
        );
        let (_, (bx, by, bz)) = two_pass(&d, d.params.hgcoef, full(&d));

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
}
