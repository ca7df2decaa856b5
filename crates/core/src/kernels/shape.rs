//! Shape-function machinery: Jacobian-based shape function derivatives,
//! element node normals, stress-to-nodal-force accumulation, the element
//! velocity gradient, and the 8-node corner gathers shared by every
//! element-loop kernel. Ports of `CalcElemShapeFunctionDerivatives`,
//! `SumElemFaceNormal`/`CalcElemNodeNormals`,
//! `SumElemStressesToNodeForces`, and `CalcElemVelocityGradient`.

use crate::domain::{Domain, Field};
use crate::simd::{Pack, SimdReal};
use crate::types::{Index, Real};

/// Gather the 8 corner coordinates of element `e` into local arrays — the
/// shared gather of the scalar stress and hourglass loops (the lane
/// kernels use `gather_elem_coords_lanes`).
#[inline]
pub fn gather_elem_coords(
    d: &Domain,
    e: Index,
    xl: &mut [Real; 8],
    yl: &mut [Real; 8],
    zl: &mut [Real; 8],
) {
    let nl = d.nodelist(e);
    for c in 0..8 {
        xl[c] = d.x(nl[c] as Index);
        yl[c] = d.y(nl[c] as Index);
        zl[c] = d.z(nl[c] as Index);
    }
}

/// Gather the 8 corner velocities of element `e` into local arrays
/// (hourglass force and kinematics both need this shape of gather).
#[inline]
pub fn gather_elem_velocities(
    d: &Domain,
    e: Index,
    xdl: &mut [Real; 8],
    ydl: &mut [Real; 8],
    zdl: &mut [Real; 8],
) {
    let nl = d.nodelist(e);
    for c in 0..8 {
        xdl[c] = d.xd(nl[c] as Index);
        ydl[c] = d.yd(nl[c] as Index);
        zdl[c] = d.zd(nl[c] as Index);
    }
}

/// `P::LANES` consecutive values of field `f` from index `i`, as one
/// `P::load`.
#[inline(always)]
pub(crate) fn load_lanes<P: Pack>(d: &Domain, f: Field, i: Index) -> P {
    // SAFETY: `Domain::values` checks the bounds, and the domain's
    // phase-disjoint access contract (`Domain` docs) covers these indices
    // as it covers `d.x(i)`: no task writes them during this phase.
    P::load(unsafe { d.values(f, i..i + P::LANES) }, 0)
}

/// Store `v` to field `f`'s values `i..i + P::LANES` as one `P::store`.
#[inline(always)]
pub(crate) fn store_lanes<P: Pack>(d: &Domain, f: Field, i: Index, v: P) {
    // SAFETY: `Domain::values_mut` checks the bounds; the group owning
    // elements `i..i + LANES` is their only reader or writer in this phase
    // (the contract `d.set_x(i)` relies on, `Domain` docs).
    v.store(unsafe { d.values_mut(f, i..i + P::LANES) }, 0)
}

/// Whether the lane group `e0 .. e0 + P::LANES` lies in one x-row of the
/// brick, checked with one compare. Every domain's connectivity comes from
/// `mesh::build_nodelist`, where a row's consecutive elements sit on
/// consecutive nodes at every corner: then corner `c` of lane `l` is node
/// `nodelist(e0)[c] + l`, and each corner is one [`load_lanes`]. A group
/// that crosses into the next row or plane steps its first corner by more
/// than `LANES − 1`.
#[inline(always)]
fn in_one_row<P: Pack>(d: &Domain, e0: Index) -> bool {
    let last = e0 + P::LANES - 1;
    d.nodelist(last)[0] as Index == d.nodelist(e0)[0] as Index + P::LANES - 1
}

/// Transposed corner gather of three nodal fields for a lane group: corner
/// `c` of elements `e0 .. e0 + P::LANES` lands in `out[i][c]`'s lanes. Each
/// lane reads exactly the values [`gather_elem_coords`] reads for its
/// element: one load per corner when the group lies in one row
/// ([`in_one_row`]), else lane by lane.
#[inline(always)]
fn gather_corners_lanes<P: Pack>(d: &Domain, e0: Index, fields: [Field; 3], out: [&mut [P; 8]; 3]) {
    let nl = d.nodelist(e0);
    if in_one_row::<P>(d, e0) {
        for (field, out) in fields.into_iter().zip(out) {
            for (o, &n) in out.iter_mut().zip(nl) {
                *o = load_lanes(d, field, n as Index);
            }
        }
    } else {
        for (field, out) in fields.into_iter().zip(out) {
            for (c, o) in out.iter_mut().enumerate() {
                let node = |l: usize| d.nodelist(e0 + l)[c] as Index;
                *o = P::gather(|l| d.get(field, node(l)));
            }
        }
    }
}

/// Transposed coordinate gather for a lane group: corner `c` of elements
/// `e0 .. e0 + P::LANES` lands in `xl[c]`'s lanes. Each lane holds exactly
/// the values of [`gather_elem_coords`] for its element.
#[inline(always)]
pub(crate) fn gather_elem_coords_lanes<P: Pack>(
    d: &Domain,
    e0: Index,
    xl: &mut [P; 8],
    yl: &mut [P; 8],
    zl: &mut [P; 8],
) {
    gather_corners_lanes(d, e0, [Field::X, Field::Y, Field::Z], [xl, yl, zl]);
}

/// Transposed velocity gather for a lane group (see
/// [`gather_elem_coords_lanes`]).
#[inline(always)]
pub(crate) fn gather_elem_velocities_lanes<P: Pack>(
    d: &Domain,
    e0: Index,
    xdl: &mut [P; 8],
    ydl: &mut [P; 8],
    zdl: &mut [P; 8],
) {
    gather_corners_lanes(d, e0, [Field::Xd, Field::Yd, Field::Zd], [xdl, ydl, zdl]);
}

/// Transposed per-corner store for a lane group, the inverse of the gathers:
/// corner `c` of lane `l` goes to `dst[8·(k0 + l) + c]`, where `k0` is the
/// group's first chunk-local element slot.
#[inline(always)]
pub(crate) fn scatter_elem_corners_lanes<P: Pack>(dst: &mut [Real], k0: usize, v: &[P; 8]) {
    let dst = &mut dst[8 * k0..8 * (k0 + P::LANES)];
    for l in 0..P::LANES {
        for c in 0..8 {
            dst[8 * l + c] = v[c].lane(l);
        }
    }
}

/// Shape-function derivatives `b[dim][corner]` and the Jacobian-based
/// element volume. Generic over [`SimdReal`]: the `f64` instantiation is
/// the scalar reference; a lane pack processes `LANES` elements at once
/// with a bit-identical per-element operation sequence.
#[inline(always)]
pub fn calc_elem_shape_function_derivatives<V: SimdReal>(
    x: &[V; 8],
    y: &[V; 8],
    z: &[V; 8],
    b: &mut [[V; 8]; 3],
) -> V {
    let c8 = V::splat(0.125);
    let fjxxi = c8 * ((x[6] - x[0]) + (x[5] - x[3]) - (x[7] - x[1]) - (x[4] - x[2]));
    let fjxet = c8 * ((x[6] - x[0]) - (x[5] - x[3]) + (x[7] - x[1]) - (x[4] - x[2]));
    let fjxze = c8 * ((x[6] - x[0]) + (x[5] - x[3]) + (x[7] - x[1]) + (x[4] - x[2]));

    let fjyxi = c8 * ((y[6] - y[0]) + (y[5] - y[3]) - (y[7] - y[1]) - (y[4] - y[2]));
    let fjyet = c8 * ((y[6] - y[0]) - (y[5] - y[3]) + (y[7] - y[1]) - (y[4] - y[2]));
    let fjyze = c8 * ((y[6] - y[0]) + (y[5] - y[3]) + (y[7] - y[1]) + (y[4] - y[2]));

    let fjzxi = c8 * ((z[6] - z[0]) + (z[5] - z[3]) - (z[7] - z[1]) - (z[4] - z[2]));
    let fjzet = c8 * ((z[6] - z[0]) - (z[5] - z[3]) + (z[7] - z[1]) - (z[4] - z[2]));
    let fjzze = c8 * ((z[6] - z[0]) + (z[5] - z[3]) + (z[7] - z[1]) + (z[4] - z[2]));

    // Cofactors of the Jacobian.
    let cjxxi = fjyet * fjzze - fjzet * fjyze;
    let cjxet = -fjyxi * fjzze + fjzxi * fjyze;
    let cjxze = fjyxi * fjzet - fjzxi * fjyet;

    let cjyxi = -fjxet * fjzze + fjzet * fjxze;
    let cjyet = fjxxi * fjzze - fjzxi * fjxze;
    let cjyze = -fjxxi * fjzet + fjzxi * fjxet;

    let cjzxi = fjxet * fjyze - fjyet * fjxze;
    let cjzet = -fjxxi * fjyze + fjyxi * fjxze;
    let cjzze = fjxxi * fjyet - fjyxi * fjxet;

    // Calculate partials: this form assumes a cofactor center evaluation.
    b[0][0] = -cjxxi - cjxet - cjxze;
    b[0][1] = cjxxi - cjxet - cjxze;
    b[0][2] = cjxxi + cjxet - cjxze;
    b[0][3] = -cjxxi + cjxet - cjxze;
    b[0][4] = -b[0][2];
    b[0][5] = -b[0][3];
    b[0][6] = -b[0][0];
    b[0][7] = -b[0][1];

    b[1][0] = -cjyxi - cjyet - cjyze;
    b[1][1] = cjyxi - cjyet - cjyze;
    b[1][2] = cjyxi + cjyet - cjyze;
    b[1][3] = -cjyxi + cjyet - cjyze;
    b[1][4] = -b[1][2];
    b[1][5] = -b[1][3];
    b[1][6] = -b[1][0];
    b[1][7] = -b[1][1];

    b[2][0] = -cjzxi - cjzet - cjzze;
    b[2][1] = cjzxi - cjzet - cjzze;
    b[2][2] = cjzxi + cjzet - cjzze;
    b[2][3] = -cjzxi + cjzet - cjzze;
    b[2][4] = -b[2][2];
    b[2][5] = -b[2][3];
    b[2][6] = -b[2][0];
    b[2][7] = -b[2][1];

    // Jacobian determinant → volume.
    V::splat(8.0) * (fjxet * cjxet + fjyet * cjyet + fjzet * cjzet)
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn sum_elem_face_normal<V: SimdReal>(
    normal_x: &mut [V; 8],
    normal_y: &mut [V; 8],
    normal_z: &mut [V; 8],
    (i0, i1, i2, i3): (usize, usize, usize, usize),
    x: &[V; 8],
    y: &[V; 8],
    z: &[V; 8],
) {
    let half = V::splat(0.5);
    let quarter = V::splat(0.25);
    let bisect_x0 = half * (x[i3] + x[i2] - x[i1] - x[i0]);
    let bisect_y0 = half * (y[i3] + y[i2] - y[i1] - y[i0]);
    let bisect_z0 = half * (z[i3] + z[i2] - z[i1] - z[i0]);
    let bisect_x1 = half * (x[i2] + x[i1] - x[i3] - x[i0]);
    let bisect_y1 = half * (y[i2] + y[i1] - y[i3] - y[i0]);
    let bisect_z1 = half * (z[i2] + z[i1] - z[i3] - z[i0]);
    let area_x = quarter * (bisect_y0 * bisect_z1 - bisect_z0 * bisect_y1);
    let area_y = quarter * (bisect_z0 * bisect_x1 - bisect_x0 * bisect_z1);
    let area_z = quarter * (bisect_x0 * bisect_y1 - bisect_y0 * bisect_x1);

    for i in [i0, i1, i2, i3] {
        normal_x[i] = normal_x[i] + area_x;
        normal_y[i] = normal_y[i] + area_y;
        normal_z[i] = normal_z[i] + area_z;
    }
}

/// Outward-ish node normals of an element: the sum over the element's six
/// faces of each face's area vector, distributed to the face's four corners.
#[inline(always)]
pub fn calc_elem_node_normals<V: SimdReal>(
    pfx: &mut [V; 8],
    pfy: &mut [V; 8],
    pfz: &mut [V; 8],
    x: &[V; 8],
    y: &[V; 8],
    z: &[V; 8],
) {
    pfx.fill(V::zero());
    pfy.fill(V::zero());
    pfz.fill(V::zero());
    // Face corner tuples, reference order.
    sum_elem_face_normal(pfx, pfy, pfz, (0, 1, 2, 3), x, y, z);
    sum_elem_face_normal(pfx, pfy, pfz, (0, 4, 5, 1), x, y, z);
    sum_elem_face_normal(pfx, pfy, pfz, (1, 5, 6, 2), x, y, z);
    sum_elem_face_normal(pfx, pfy, pfz, (2, 6, 7, 3), x, y, z);
    sum_elem_face_normal(pfx, pfy, pfz, (3, 7, 4, 0), x, y, z);
    sum_elem_face_normal(pfx, pfy, pfz, (4, 7, 6, 5), x, y, z);
}

/// Per-corner forces from the (diagonal, isotropic) element stress:
/// `f = −σ · normal`.
#[inline(always)]
pub fn sum_elem_stresses_to_node_forces<V: SimdReal>(
    b: &[[V; 8]; 3],
    stress_xx: V,
    stress_yy: V,
    stress_zz: V,
    fx: &mut [V; 8],
    fy: &mut [V; 8],
    fz: &mut [V; 8],
) {
    for i in 0..8 {
        fx[i] = -stress_xx * b[0][i];
        fy[i] = -stress_yy * b[1][i];
        fz[i] = -stress_zz * b[2][i];
    }
}

/// Principal components of the element velocity gradient
/// (`CalcElemVelocityGradient`; only `d[0..3]` are consumed downstream but
/// we compute all six like the reference). Generic over [`SimdReal`].
#[inline(always)]
pub fn calc_elem_velocity_gradient<V: SimdReal>(
    xvel: &[V; 8],
    yvel: &[V; 8],
    zvel: &[V; 8],
    b: &[[V; 8]; 3],
    detj: V,
) -> [V; 6] {
    let inv_detj = V::splat(1.0) / detj;
    let half = V::splat(0.5);
    let pfx = &b[0];
    let pfy = &b[1];
    let pfz = &b[2];

    let mut d = [V::zero(); 6];
    d[0] = inv_detj
        * (pfx[0] * (xvel[0] - xvel[6])
            + pfx[1] * (xvel[1] - xvel[7])
            + pfx[2] * (xvel[2] - xvel[4])
            + pfx[3] * (xvel[3] - xvel[5]));
    d[1] = inv_detj
        * (pfy[0] * (yvel[0] - yvel[6])
            + pfy[1] * (yvel[1] - yvel[7])
            + pfy[2] * (yvel[2] - yvel[4])
            + pfy[3] * (yvel[3] - yvel[5]));
    d[2] = inv_detj
        * (pfz[0] * (zvel[0] - zvel[6])
            + pfz[1] * (zvel[1] - zvel[7])
            + pfz[2] * (zvel[2] - zvel[4])
            + pfz[3] * (zvel[3] - zvel[5]));

    let dyddx = inv_detj
        * (pfx[0] * (yvel[0] - yvel[6])
            + pfx[1] * (yvel[1] - yvel[7])
            + pfx[2] * (yvel[2] - yvel[4])
            + pfx[3] * (yvel[3] - yvel[5]));
    let dxddy = inv_detj
        * (pfy[0] * (xvel[0] - xvel[6])
            + pfy[1] * (xvel[1] - xvel[7])
            + pfy[2] * (xvel[2] - xvel[4])
            + pfy[3] * (xvel[3] - xvel[5]));
    let dzddx = inv_detj
        * (pfx[0] * (zvel[0] - zvel[6])
            + pfx[1] * (zvel[1] - zvel[7])
            + pfx[2] * (zvel[2] - zvel[4])
            + pfx[3] * (zvel[3] - zvel[5]));
    let dxddz = inv_detj
        * (pfz[0] * (xvel[0] - xvel[6])
            + pfz[1] * (xvel[1] - xvel[7])
            + pfz[2] * (xvel[2] - xvel[4])
            + pfz[3] * (xvel[3] - xvel[5]));
    let dzddy = inv_detj
        * (pfy[0] * (zvel[0] - zvel[6])
            + pfy[1] * (zvel[1] - zvel[7])
            + pfy[2] * (zvel[2] - zvel[4])
            + pfy[3] * (zvel[3] - zvel[5]));
    let dyddz = inv_detj
        * (pfz[0] * (yvel[0] - yvel[6])
            + pfz[1] * (yvel[1] - yvel[7])
            + pfz[2] * (yvel[2] - yvel[4])
            + pfz[3] * (yvel[3] - yvel[5]));

    d[5] = half * (dxddy + dyddx);
    d[4] = half * (dxddz + dzddx);
    d[3] = half * (dzddy + dyddz);
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::volume::{calc_elem_volume, unit_cube};
    use proptest::prelude::*;

    /// Every lane group `e0 .. e0 + P::LANES` of `d` that passes
    /// [`in_one_row`] has all eight corners on consecutive nodes; returns
    /// how many groups passed.
    fn row_groups_are_consecutive<P: Pack>(d: &Domain) -> usize {
        let lanes = P::LANES;
        let mut rows = 0;
        for e0 in 0..(d.num_elem() + 1).saturating_sub(lanes) {
            if !in_one_row::<P>(d, e0) {
                continue;
            }
            rows += 1;
            let first = d.nodelist(e0);
            for l in 0..lanes {
                for (c, &n) in d.nodelist(e0 + l).iter().enumerate() {
                    assert_eq!(
                        n,
                        first[c] + l as u32,
                        "element {e0} + lane {l}, corner {c}"
                    );
                }
            }
        }
        rows
    }

    #[test]
    fn one_compare_row_check_implies_consecutive_corners() {
        use crate::mesh::MeshShape;
        use crate::simd::Lanes;
        // Cubes of edge 1-6 and 9 (rows long enough for 8 lanes), the
        // sub-bricks of a 2x2x2 rank grid of a size-4 cube (`nodal.rs`'s BC
        // test), and three uneven sub-bricks.
        let mut shapes: Vec<MeshShape> = [1, 2, 3, 4, 5, 6, 9].map(MeshShape::cube).into();
        for offset in [
            (0, 0, 0),
            (2, 0, 0),
            (0, 2, 0),
            (0, 0, 2),
            (2, 2, 0),
            (2, 2, 2),
        ] {
            shapes.push(MeshShape::brick((2, 2, 2), (4, 4, 4), offset));
        }
        for (local, offset) in [
            ((5, 2, 3), (1, 4, 0)),
            ((6, 3, 1), (0, 3, 5)),
            ((10, 2, 3), (2, 9, 4)),
        ] {
            shapes.push(MeshShape::brick(local, (12, 12, 12), offset));
        }
        for shape in shapes {
            let d = Domain::build_subdomain(shape, 1, 1, 1, 0);
            // The check also passes every group that does lie in one row:
            // `nx − L + 1` per row.
            let rows = shape.ny * shape.nz;
            let expect = |lanes: usize| rows * (shape.nx + 1).saturating_sub(lanes);
            assert_eq!(
                row_groups_are_consecutive::<Lanes<4>>(&d),
                expect(4),
                "{shape:?}"
            );
            assert_eq!(
                row_groups_are_consecutive::<Lanes<8>>(&d),
                expect(8),
                "{shape:?}"
            );
        }
    }

    #[test]
    fn gather_helpers_match_domain_accessors() {
        let d = Domain::build(3, 1, 1, 1, 0);
        for n in 0..d.num_node() {
            d.set_xd(n, (n as Real).sin());
            d.set_yd(n, (n as Real).cos());
            d.set_zd(n, n as Real * 0.25);
        }
        let mut x = [0.0; 8];
        let mut y = [0.0; 8];
        let mut z = [0.0; 8];
        let mut xd = [0.0; 8];
        let mut yd = [0.0; 8];
        let mut zd = [0.0; 8];
        for e in [0, 7, d.num_elem() - 1] {
            gather_elem_coords(&d, e, &mut x, &mut y, &mut z);
            gather_elem_velocities(&d, e, &mut xd, &mut yd, &mut zd);
            for (c, &n) in d.nodelist(e).iter().enumerate() {
                let n = n as Index;
                assert_eq!(x[c], d.x(n));
                assert_eq!(y[c], d.y(n));
                assert_eq!(z[c], d.z(n));
                assert_eq!(xd[c], d.xd(n));
                assert_eq!(yd[c], d.yd(n));
                assert_eq!(zd[c], d.zd(n));
            }
        }
    }

    #[test]
    fn shape_derivative_volume_matches_triple_product_for_cube() {
        let (x, y, z) = unit_cube();
        let mut b = [[0.0; 8]; 3];
        let v = calc_elem_shape_function_derivatives(&x, &y, &z, &mut b);
        assert!((v - calc_elem_volume(&x, &y, &z)).abs() < 1e-14);
    }

    #[test]
    fn node_normals_sum_to_zero_for_closed_element() {
        // The surface of a closed polyhedron has zero net area vector.
        let (mut x, mut y, mut z) = unit_cube();
        // Perturb to a general hexahedron.
        x[6] += 0.13;
        y[2] -= 0.07;
        z[5] += 0.11;
        let mut pfx = [1.0; 8]; // nonzero to verify the fill(0.0)
        let mut pfy = [1.0; 8];
        let mut pfz = [1.0; 8];
        calc_elem_node_normals(&mut pfx, &mut pfy, &mut pfz, &x, &y, &z);
        assert!(pfx.iter().sum::<Real>().abs() < 1e-12);
        assert!(pfy.iter().sum::<Real>().abs() < 1e-12);
        assert!(pfz.iter().sum::<Real>().abs() < 1e-12);
    }

    #[test]
    fn unit_cube_node_normals() {
        // For the unit cube, each corner accumulates ±1/4 area from each of
        // its three faces; corner 0 touches faces at x=0, y=0, z=0 whose
        // outward... the reference convention gives symmetric ±0.25 values.
        let (x, y, z) = unit_cube();
        let mut pfx = [0.0; 8];
        let mut pfy = [0.0; 8];
        let mut pfz = [0.0; 8];
        calc_elem_node_normals(&mut pfx, &mut pfy, &mut pfz, &x, &y, &z);
        for i in 0..8 {
            assert!((pfx[i].abs() - 0.25).abs() < 1e-12, "pfx[{i}] = {}", pfx[i]);
            assert!((pfy[i].abs() - 0.25).abs() < 1e-12);
            assert!((pfz[i].abs() - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn stresses_to_forces_scaling() {
        let b = [[1.0; 8], [2.0; 8], [3.0; 8]];
        let mut fx = [0.0; 8];
        let mut fy = [0.0; 8];
        let mut fz = [0.0; 8];
        sum_elem_stresses_to_node_forces(&b, 2.0, -1.0, 0.5, &mut fx, &mut fy, &mut fz);
        assert!(fx.iter().all(|&f| (f + 2.0).abs() < 1e-15));
        assert!(fy.iter().all(|&f| (f - 2.0).abs() < 1e-15));
        assert!(fz.iter().all(|&f| (f + 1.5).abs() < 1e-15));
    }

    #[test]
    fn velocity_gradient_of_uniform_expansion() {
        // v = (x, y, z) gives D = I (divergence 3, no shear).
        let (x, y, z) = unit_cube();
        let mut b = [[0.0; 8]; 3];
        let detj = calc_elem_shape_function_derivatives(&x, &y, &z, &mut b);
        let d = calc_elem_velocity_gradient(&x, &y, &z, &b, detj);
        assert!((d[0] - 1.0).abs() < 1e-12, "dxx = {}", d[0]);
        assert!((d[1] - 1.0).abs() < 1e-12);
        assert!((d[2] - 1.0).abs() < 1e-12);
        assert!(d[3].abs() < 1e-12 && d[4].abs() < 1e-12 && d[5].abs() < 1e-12);
    }

    #[test]
    fn velocity_gradient_of_rigid_translation_is_zero() {
        let (x, y, z) = unit_cube();
        let mut b = [[0.0; 8]; 3];
        let detj = calc_elem_shape_function_derivatives(&x, &y, &z, &mut b);
        let vel = [3.7; 8];
        let d = calc_elem_velocity_gradient(&vel, &vel, &vel, &b, detj);
        for v in d {
            assert!(v.abs() < 1e-12);
        }
    }

    proptest! {
        /// The Jacobian volume matches the exact triple-product volume for
        /// parallelepipeds (affine images of the cube), where the trilinear
        /// map is exactly linear.
        #[test]
        fn jacobian_volume_exact_for_affine_images(
            a in 0.5f64..2.0, bscale in 0.5f64..2.0, c in 0.5f64..2.0,
            shear in -0.5f64..0.5,
        ) {
            let (x0, y0, z0) = unit_cube();
            let mut x = [0.0; 8];
            let mut y = [0.0; 8];
            let mut z = [0.0; 8];
            for i in 0..8 {
                x[i] = a * x0[i] + shear * y0[i];
                y[i] = bscale * y0[i];
                z[i] = c * z0[i] + shear * x0[i];
            }
            let mut b = [[0.0; 8]; 3];
            let vj = calc_elem_shape_function_derivatives(&x, &y, &z, &mut b);
            let vt = calc_elem_volume(&x, &y, &z);
            prop_assert!((vj - vt).abs() < 1e-10 * vt.abs().max(1.0));
        }

        /// Node normals always sum to (0,0,0) over a closed element.
        #[test]
        fn normals_closed_surface(seed in proptest::array::uniform24(-0.25f64..0.25)) {
            let (mut x, mut y, mut z) = unit_cube();
            for i in 0..8 {
                x[i] += seed[i];
                y[i] += seed[8 + i];
                z[i] += seed[16 + i];
            }
            let mut pfx = [0.0; 8];
            let mut pfy = [0.0; 8];
            let mut pfz = [0.0; 8];
            calc_elem_node_normals(&mut pfx, &mut pfy, &mut pfz, &x, &y, &z);
            prop_assert!(pfx.iter().sum::<Real>().abs() < 1e-10);
            prop_assert!(pfy.iter().sum::<Real>().abs() < 1e-10);
            prop_assert!(pfz.iter().sum::<Real>().abs() < 1e-10);
        }
    }
}
