//! Element geometry: volumes, face areas, characteristic lengths, and
//! volume derivatives — straight ports of `CalcElemVolume`, `AreaFace`,
//! `CalcElemCharacteristicLength`, `VoluDer` and `CalcElemVolumeDerivative`
//! from the LULESH 2.0 reference, generic over [`SimdReal`] (`f64` is the
//! scalar reference; a lane pack — `Lanes<W>`, or the AVX2 pack — runs its
//! elements in lockstep with the same per-element operation sequence).

// Signatures and branch structure mirror `CalcElemVolume`/`VoluDer`/`AreaFace` one-to-one.
#![allow(clippy::too_many_arguments)]
use crate::simd::SimdReal;
use crate::types::Real;

#[inline(always)]
fn triple_product<V: SimdReal>(x1: V, y1: V, z1: V, x2: V, y2: V, z2: V, x3: V, y3: V, z3: V) -> V {
    x1 * (y2 * z3 - z2 * y3) + x2 * (z1 * y3 - y1 * z3) + x3 * (y1 * z2 - z1 * y2)
}

/// Volume of a hexahedron given its 8 node coordinates in LULESH corner
/// order. Positive for a right-handed, non-degenerate element.
#[inline(always)]
pub fn calc_elem_volume<V: SimdReal>(x: &[V; 8], y: &[V; 8], z: &[V; 8]) -> V {
    let twelveth = V::splat(1.0 / 12.0);
    let dx61 = x[6] - x[1];
    let dy61 = y[6] - y[1];
    let dz61 = z[6] - z[1];

    let dx70 = x[7] - x[0];
    let dy70 = y[7] - y[0];
    let dz70 = z[7] - z[0];

    let dx63 = x[6] - x[3];
    let dy63 = y[6] - y[3];
    let dz63 = z[6] - z[3];

    let dx20 = x[2] - x[0];
    let dy20 = y[2] - y[0];
    let dz20 = z[2] - z[0];

    let dx50 = x[5] - x[0];
    let dy50 = y[5] - y[0];
    let dz50 = z[5] - z[0];

    let dx64 = x[6] - x[4];
    let dy64 = y[6] - y[4];
    let dz64 = z[6] - z[4];

    let dx31 = x[3] - x[1];
    let dy31 = y[3] - y[1];
    let dz31 = z[3] - z[1];

    let dx72 = x[7] - x[2];
    let dy72 = y[7] - y[2];
    let dz72 = z[7] - z[2];

    let dx43 = x[4] - x[3];
    let dy43 = y[4] - y[3];
    let dz43 = z[4] - z[3];

    let dx57 = x[5] - x[7];
    let dy57 = y[5] - y[7];
    let dz57 = z[5] - z[7];

    let dx14 = x[1] - x[4];
    let dy14 = y[1] - y[4];
    let dz14 = z[1] - z[4];

    let dx25 = x[2] - x[5];
    let dy25 = y[2] - y[5];
    let dz25 = z[2] - z[5];

    let volume = triple_product(
        dx31 + dx72,
        dx63,
        dx20,
        dy31 + dy72,
        dy63,
        dy20,
        dz31 + dz72,
        dz63,
        dz20,
    ) + triple_product(
        dx43 + dx57,
        dx64,
        dx70,
        dy43 + dy57,
        dy64,
        dy70,
        dz43 + dz57,
        dz64,
        dz70,
    ) + triple_product(
        dx14 + dx25,
        dx61,
        dx50,
        dy14 + dy25,
        dy61,
        dy50,
        dz14 + dz25,
        dz61,
        dz50,
    );

    volume * twelveth
}

/// The squared-area metric of a quadrilateral face used by the
/// characteristic-length computation (`AreaFace` in the reference).
#[inline(always)]
pub fn area_face<V: SimdReal>(
    x0: V,
    x1: V,
    x2: V,
    x3: V,
    y0: V,
    y1: V,
    y2: V,
    y3: V,
    z0: V,
    z1: V,
    z2: V,
    z3: V,
) -> V {
    let fx = (x2 - x0) - (x3 - x1);
    let fy = (y2 - y0) - (y3 - y1);
    let fz = (z2 - z0) - (z3 - z1);
    let gx = (x2 - x0) + (x3 - x1);
    let gy = (y2 - y0) + (y3 - y1);
    let gz = (z2 - z0) + (z3 - z1);
    (fx * fx + fy * fy + fz * fz) * (gx * gx + gy * gy + gz * gz)
        - (fx * gx + fy * gy + fz * gz) * (fx * gx + fy * gy + fz * gz)
}

/// Characteristic length of an element: `4·V / √(max face area metric)`.
#[inline(always)]
pub fn calc_elem_characteristic_length<V: SimdReal>(
    x: &[V; 8],
    y: &[V; 8],
    z: &[V; 8],
    volume: V,
) -> V {
    // The six faces in reference order. The running maximum is a select
    // (`a > max ? a : max`): the metric is never NaN or −0.0 for finite
    // coordinates, so this is the reference's `std::max` bit for bit.
    const FACES: [[usize; 4]; 6] = [
        [0, 1, 2, 3],
        [4, 5, 6, 7],
        [0, 1, 5, 4],
        [1, 2, 6, 5],
        [2, 3, 7, 6],
        [3, 0, 4, 7],
    ];
    let mut char_length = V::zero();
    for [i, j, k, l] in FACES {
        let a = area_face(
            x[i], x[j], x[k], x[l], y[i], y[j], y[k], y[l], z[i], z[j], z[k], z[l],
        );
        char_length = a.select_gt(char_length, a, char_length);
    }
    V::splat(4.0) * volume / char_length.sqrt()
}

/// Partial derivative of element volume w.r.t. one corner's coordinates
/// (`VoluDer`). The six node arguments are the corner's neighbours in the
/// stencil order the reference uses.
#[inline(always)]
pub fn volu_der<V: SimdReal>(
    x0: V,
    x1: V,
    x2: V,
    x3: V,
    x4: V,
    x5: V,
    y0: V,
    y1: V,
    y2: V,
    y3: V,
    y4: V,
    y5: V,
    z0: V,
    z1: V,
    z2: V,
    z3: V,
    z4: V,
    z5: V,
) -> (V, V, V) {
    let twelfth = V::splat(1.0 / 12.0);

    let dvdx = (y1 + y2) * (z0 + z1) - (y0 + y1) * (z1 + z2) + (y0 + y4) * (z3 + z4)
        - (y3 + y4) * (z0 + z4)
        - (y2 + y5) * (z3 + z5)
        + (y3 + y5) * (z2 + z5);
    let dvdy = -((x1 + x2) * (z0 + z1)) + (x0 + x1) * (z1 + z2) - (x0 + x4) * (z3 + z4)
        + (x3 + x4) * (z0 + z4)
        + (x2 + x5) * (z3 + z5)
        - (x3 + x5) * (z2 + z5);
    let dvdz = -((y1 + y2) * (x0 + x1)) + (y0 + y1) * (x1 + x2) - (y0 + y4) * (x3 + x4)
        + (y3 + y4) * (x0 + x4)
        + (y2 + y5) * (x3 + x5)
        - (y3 + y5) * (x2 + x5);

    (dvdx * twelfth, dvdy * twelfth, dvdz * twelfth)
}

/// Volume derivatives at all 8 corners (`CalcElemVolumeDerivative`).
#[inline(always)]
pub fn calc_elem_volume_derivative<V: SimdReal>(
    x: &[V; 8],
    y: &[V; 8],
    z: &[V; 8],
) -> ([V; 8], [V; 8], [V; 8]) {
    let mut dvdx = [V::zero(); 8];
    let mut dvdy = [V::zero(); 8];
    let mut dvdz = [V::zero(); 8];

    // Stencils per corner, copied from the reference call sequence:
    // (corner index, [six neighbour node indices]).
    const STENCIL: [(usize, [usize; 6]); 8] = [
        (0, [1, 2, 3, 4, 5, 7]),
        (3, [0, 1, 2, 7, 4, 6]),
        (2, [3, 0, 1, 6, 7, 5]),
        (1, [2, 3, 0, 5, 6, 4]),
        (4, [7, 6, 5, 0, 3, 1]),
        (5, [4, 7, 6, 1, 0, 2]),
        (6, [5, 4, 7, 2, 1, 3]),
        (7, [6, 5, 4, 3, 2, 0]),
    ];

    for &(c, n) in &STENCIL {
        let (dx, dy, dz) = volu_der(
            x[n[0]], x[n[1]], x[n[2]], x[n[3]], x[n[4]], x[n[5]], y[n[0]], y[n[1]], y[n[2]],
            y[n[3]], y[n[4]], y[n[5]], z[n[0]], z[n[1]], z[n[2]], z[n[3]], z[n[4]], z[n[5]],
        );
        dvdx[c] = dx;
        dvdy[c] = dy;
        dvdz[c] = dz;
    }

    (dvdx, dvdy, dvdz)
}

/// Node coordinates of the unit cube in LULESH corner order.
pub fn unit_cube() -> ([Real; 8], [Real; 8], [Real; 8]) {
    // Corner order: bottom face 0-1-2-3 counter-clockwise, top face 4-5-6-7.
    let x = [0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0, 0.0];
    let y = [0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0];
    let z = [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0];
    (x, y, z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn scaled_cube(sx: Real, sy: Real, sz: Real) -> ([Real; 8], [Real; 8], [Real; 8]) {
        let (mut x, mut y, mut z) = unit_cube();
        for i in 0..8 {
            x[i] *= sx;
            y[i] *= sy;
            z[i] *= sz;
        }
        (x, y, z)
    }

    #[test]
    fn unit_cube_volume_is_one() {
        let (x, y, z) = unit_cube();
        assert!((calc_elem_volume(&x, &y, &z) - 1.0).abs() < 1e-14);
    }

    #[test]
    fn box_volume_is_product_of_sides() {
        let (x, y, z) = scaled_cube(2.0, 3.0, 0.5);
        assert!((calc_elem_volume(&x, &y, &z) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn unit_cube_characteristic_length() {
        // AreaFace of a unit square evaluates to 16 (it is a scaled area
        // metric, not the area itself), so h = 4·V/√16 = 1 for a unit cube —
        // the edge length, as intended by the reference.
        let (x, y, z) = unit_cube();
        let v = calc_elem_volume(&x, &y, &z);
        let h = calc_elem_characteristic_length(&x, &y, &z, v);
        assert!((h - 1.0).abs() < 1e-12, "h = {h}");
    }

    #[test]
    fn volume_derivative_matches_finite_difference() {
        let (x, y, z) = scaled_cube(1.3, 0.9, 1.1);
        let (dvdx, dvdy, dvdz) = calc_elem_volume_derivative(&x, &y, &z);
        let eps = 1e-6;
        for c in 0..8 {
            let mut xp = x;
            xp[c] += eps;
            let fd = (calc_elem_volume(&xp, &y, &z) - calc_elem_volume(&x, &y, &z)) / eps;
            assert!(
                (dvdx[c] - fd).abs() < 1e-5,
                "corner {c}: {} vs {fd}",
                dvdx[c]
            );

            let mut yp = y;
            yp[c] += eps;
            let fd = (calc_elem_volume(&x, &yp, &z) - calc_elem_volume(&x, &y, &z)) / eps;
            assert!((dvdy[c] - fd).abs() < 1e-5);

            let mut zp = z;
            zp[c] += eps;
            let fd = (calc_elem_volume(&x, &y, &zp) - calc_elem_volume(&x, &y, &z)) / eps;
            assert!((dvdz[c] - fd).abs() < 1e-5);
        }
    }

    proptest! {
        /// Volume is translation invariant.
        #[test]
        fn volume_translation_invariant(
            tx in -10.0f64..10.0, ty in -10.0f64..10.0, tz in -10.0f64..10.0,
            sx in 0.1f64..5.0, sy in 0.1f64..5.0, sz in 0.1f64..5.0,
        ) {
            let (x, y, z) = scaled_cube(sx, sy, sz);
            let v0 = calc_elem_volume(&x, &y, &z);
            let mut xt = x; let mut yt = y; let mut zt = z;
            for i in 0..8 { xt[i] += tx; yt[i] += ty; zt[i] += tz; }
            let v1 = calc_elem_volume(&xt, &yt, &zt);
            prop_assert!((v0 - v1).abs() < 1e-9 * v0.abs().max(1.0));
        }

        /// Volume scales with the cube of a uniform scale factor.
        #[test]
        fn volume_scales_cubically(s in 0.1f64..4.0) {
            let (x, y, z) = unit_cube();
            let mut xs = x; let mut ys = y; let mut zs = z;
            for i in 0..8 { xs[i] *= s; ys[i] *= s; zs[i] *= s; }
            let v = calc_elem_volume(&xs, &ys, &zs);
            prop_assert!((v - s*s*s).abs() < 1e-9 * s*s*s);
        }

        /// Randomly perturbed (but still convex-ish) cubes keep positive
        /// volume and positive characteristic length.
        #[test]
        fn perturbed_cube_positive(seed in proptest::array::uniform24(-0.2f64..0.2)) {
            let (mut x, mut y, mut z) = unit_cube();
            for i in 0..8 {
                x[i] += seed[i];
                y[i] += seed[8 + i];
                z[i] += seed[16 + i];
            }
            let v = calc_elem_volume(&x, &y, &z);
            prop_assert!(v > 0.0);
            let h = calc_elem_characteristic_length(&x, &y, &z, v);
            prop_assert!(h > 0.0);
        }

        /// Sum of volume derivatives over all corners in each direction is
        /// zero for any hexahedron (uniform translation changes no volume).
        #[test]
        fn volume_derivatives_sum_to_zero(seed in proptest::array::uniform24(-0.3f64..0.3)) {
            let (mut x, mut y, mut z) = unit_cube();
            for i in 0..8 {
                x[i] += seed[i];
                y[i] += seed[8 + i];
                z[i] += seed[16 + i];
            }
            let (dvdx, dvdy, dvdz) = calc_elem_volume_derivative(&x, &y, &z);
            prop_assert!(dvdx.iter().sum::<f64>().abs() < 1e-10);
            prop_assert!(dvdy.iter().sum::<f64>().abs() < 1e-10);
            prop_assert!(dvdz.iter().sum::<f64>().abs() < 1e-10);
        }
    }
}
