//! Stress-force pipeline: `InitStressTermsForElems`,
//! `IntegrateStressForElems`, and the node-centered force gathers.
//!
//! All element-loop kernels operate on a [`Chunk`] of the element index
//! space plus *local* scratch slices whose length matches the chunk
//! (`sigxx[i - range.begin]`), so the same code serves the serial driver
//! (one chunk covering everything), the OpenMP-style driver (one chunk per
//! thread) and the task driver (one chunk per partition task, scratch
//! task-local per the paper's locality trick T6).
//!
//! Force gathering always follows the reference's *threaded* path: element
//! loops write per-element-corner forces (`fx_elem`), and a node loop sums
//! each node's corners in corner-list order. This makes the floating-point
//! summation order identical across all drivers.

// Indexed loops mirror the reference kernels.
#![allow(clippy::needless_range_loop)]
use crate::domain::Domain;
use crate::kernels::shape::{
    calc_elem_node_normals, calc_elem_shape_function_derivatives, gather_elem_coords,
    gather_elem_coords_lanes, scatter_elem_corners_lanes, sum_elem_stresses_to_node_forces,
};
#[cfg(target_arch = "x86_64")]
use crate::simd::Avx2Pack;
use crate::simd::{self, lane_groups, Lanes, Pack};
use crate::types::{Index, LuleshError, Real};
use parutil::Chunk;

/// Zero the nodal force arrays (`CalcForceForNodes` prologue).
pub fn zero_forces(d: &Domain, range: Chunk) {
    for n in range.iter() {
        d.set_fx(n, 0.0);
        d.set_fy(n, 0.0);
        d.set_fz(n, 0.0);
    }
}

/// `sigxx = sigyy = sigzz = −p − q` for each element of the chunk.
/// Scratch slices are chunk-local: entry `i − range.begin` belongs to
/// element `i`.
pub fn init_stress_terms_for_elems(
    d: &Domain,
    sigxx: &mut [Real],
    sigyy: &mut [Real],
    sigzz: &mut [Real],
    range: Chunk,
) {
    debug_assert_eq!(sigxx.len(), range.len());
    for i in range.iter() {
        let s = -d.p(i) - d.q(i);
        let k = i - range.begin;
        sigxx[k] = s;
        sigyy[k] = s;
        sigzz[k] = s;
    }
}

/// Integrate the isotropic element stress into per-corner forces
/// (`IntegrateStressForElems`, threaded variant). Writes `determ` (for the
/// volume-error check) and `f*_elem[8·(i − range.begin) + c]`.
///
/// Dispatches on the process-wide SIMD width and the host's ISA
/// (`simd::dispatch!`): the scalar path is the reference, the lane paths
/// are bit-identical by construction (same per-element IEEE operation
/// sequence, no reassociation).
#[allow(clippy::too_many_arguments)]
pub fn integrate_stress_for_elems(
    d: &Domain,
    sigxx: &[Real],
    sigyy: &[Real],
    sigzz: &[Real],
    determ: &mut [Real],
    fx_elem: &mut [Real],
    fy_elem: &mut [Real],
    fz_elem: &mut [Real],
    range: Chunk,
) {
    simd::dispatch!(
        integrate_stress_for_elems_lanes
            / integrate_stress_for_elems_avx2(
                d, sigxx, sigyy, sigzz, determ, fx_elem, fy_elem, fz_elem, range
            ),
        scalar: integrate_stress_for_elems_scalar(
            d, sigxx, sigyy, sigzz, determ, fx_elem, fy_elem, fz_elem, range
        )
    )
}

/// Scalar reference implementation of [`integrate_stress_for_elems`].
#[allow(clippy::too_many_arguments)]
pub fn integrate_stress_for_elems_scalar(
    d: &Domain,
    sigxx: &[Real],
    sigyy: &[Real],
    sigzz: &[Real],
    determ: &mut [Real],
    fx_elem: &mut [Real],
    fy_elem: &mut [Real],
    fz_elem: &mut [Real],
    range: Chunk,
) {
    debug_assert_eq!(determ.len(), range.len());
    debug_assert_eq!(fx_elem.len(), 8 * range.len());

    let mut b = [[0.0; 8]; 3];
    let mut x_local = [0.0; 8];
    let mut y_local = [0.0; 8];
    let mut z_local = [0.0; 8];
    let mut fx_local = [0.0; 8];
    let mut fy_local = [0.0; 8];
    let mut fz_local = [0.0; 8];

    for i in range.iter() {
        let k = i - range.begin;
        gather_elem_coords(d, i, &mut x_local, &mut y_local, &mut z_local);

        determ[k] = calc_elem_shape_function_derivatives(&x_local, &y_local, &z_local, &mut b);
        let (b0, b12) = b.split_first_mut().expect("b has 3 rows");
        let (b1, b2) = b12.split_first_mut().expect("b has 3 rows");
        calc_elem_node_normals(b0, b1, &mut b2[0], &x_local, &y_local, &z_local);
        sum_elem_stresses_to_node_forces(
            &b,
            sigxx[k],
            sigyy[k],
            sigzz[k],
            &mut fx_local,
            &mut fy_local,
            &mut fz_local,
        );

        fx_elem[8 * k..8 * k + 8].copy_from_slice(&fx_local);
        fy_elem[8 * k..8 * k + 8].copy_from_slice(&fy_local);
        fz_elem[8 * k..8 * k + 8].copy_from_slice(&fz_local);
    }
}

/// Lane implementation of [`integrate_stress_for_elems`]: the chunk is
/// walked in groups of `W` elements computed with [`Lanes<W>`]; the ragged
/// tail reuses the same generic body at `W = 1`, which is
/// operation-identical to the scalar reference.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
pub fn integrate_stress_for_elems_lanes<const W: usize>(
    d: &Domain,
    sigxx: &[Real],
    sigyy: &[Real],
    sigzz: &[Real],
    determ: &mut [Real],
    fx_elem: &mut [Real],
    fy_elem: &mut [Real],
    fz_elem: &mut [Real],
    range: Chunk,
) {
    stress_groups::<Lanes<W>>(
        d, sigxx, sigyy, sigzz, determ, fx_elem, fy_elem, fz_elem, range,
    )
}

/// [`integrate_stress_for_elems`] on AVX2 packs: the same body as
/// [`integrate_stress_for_elems_lanes::<4>`], bit for bit.
///
/// # Safety
/// The CPU must have AVX2 (`is_x86_feature_detected!("avx2")`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
pub fn integrate_stress_for_elems_avx2(
    d: &Domain,
    sigxx: &[Real],
    sigyy: &[Real],
    sigzz: &[Real],
    determ: &mut [Real],
    fx_elem: &mut [Real],
    fy_elem: &mut [Real],
    fz_elem: &mut [Real],
    range: Chunk,
) {
    stress_groups::<Avx2Pack>(
        d, sigxx, sigyy, sigzz, determ, fx_elem, fy_elem, fz_elem, range,
    )
}

/// The chunk walk behind both lane entry points, in groups of `P::LANES`.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn stress_groups<P: Pack>(
    d: &Domain,
    sigxx: &[Real],
    sigyy: &[Real],
    sigzz: &[Real],
    determ: &mut [Real],
    fx_elem: &mut [Real],
    fy_elem: &mut [Real],
    fz_elem: &mut [Real],
    range: Chunk,
) {
    debug_assert_eq!(determ.len(), range.len());
    debug_assert_eq!(fx_elem.len(), 8 * range.len());

    lane_groups!(P, range.begin, range.end, |e| stress_lane_group
        / stress_tail(
            d,
            range.begin,
            e,
            sigxx,
            sigyy,
            sigzz,
            determ,
            fx_elem,
            fy_elem,
            fz_elem
        ));
}

/// Elements `e0..end` one at a time: the ragged tail of every width and
/// the whole of `W = 1` (see [`lane_groups!`]).
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn stress_tail(
    d: &Domain,
    begin: Index,
    e0: Index,
    sigxx: &[Real],
    sigyy: &[Real],
    sigzz: &[Real],
    determ: &mut [Real],
    fx_elem: &mut [Real],
    fy_elem: &mut [Real],
    fz_elem: &mut [Real],
    end: Index,
) {
    for e in e0..end {
        stress_lane_group::<Lanes<1>>(
            d, begin, e, sigxx, sigyy, sigzz, determ, fx_elem, fy_elem, fz_elem,
        );
    }
}

/// One group of `P::LANES` consecutive elements starting at `e0`
/// (chunk-local slot `e0 - begin`), computed entirely in lane registers
/// and scattered back.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn stress_lane_group<P: Pack>(
    d: &Domain,
    begin: Index,
    e0: Index,
    sigxx: &[Real],
    sigyy: &[Real],
    sigzz: &[Real],
    determ: &mut [Real],
    fx_elem: &mut [Real],
    fy_elem: &mut [Real],
    fz_elem: &mut [Real],
) {
    let k0 = e0 - begin;
    let zero = P::zero();
    let (mut xl, mut yl, mut zl) = ([zero; 8], [zero; 8], [zero; 8]);
    gather_elem_coords_lanes(d, e0, &mut xl, &mut yl, &mut zl);

    let mut b = [[zero; 8]; 3];
    let det = calc_elem_shape_function_derivatives(&xl, &yl, &zl, &mut b);
    let (b0, b12) = b.split_first_mut().expect("b has 3 rows");
    let (b1, b2) = b12.split_first_mut().expect("b has 3 rows");
    calc_elem_node_normals(b0, b1, &mut b2[0], &xl, &yl, &zl);

    let sx = P::load(sigxx, k0);
    let sy = P::load(sigyy, k0);
    let sz = P::load(sigzz, k0);
    let (mut fxl, mut fyl, mut fzl) = ([zero; 8], [zero; 8], [zero; 8]);
    sum_elem_stresses_to_node_forces(&b, sx, sy, sz, &mut fxl, &mut fyl, &mut fzl);

    det.store(determ, k0);
    scatter_elem_corners_lanes(fx_elem, k0, &fxl);
    scatter_elem_corners_lanes(fy_elem, k0, &fyl);
    scatter_elem_corners_lanes(fz_elem, k0, &fzl);
}

/// Fail with [`LuleshError::VolumeError`] if any determinant in the slice is
/// non-positive.
pub fn check_volume_error(determ: &[Real]) -> Result<(), LuleshError> {
    if determ.iter().any(|&v| v <= 0.0) {
        Err(LuleshError::VolumeError)
    } else {
        Ok(())
    }
}

/// Gather per-corner stress forces into nodal forces: `f(n) = Σ corners`.
/// `f*_elem` are the full `8·numElem` arrays.
pub fn gather_forces_set(
    d: &Domain,
    fx_elem: &[Real],
    fy_elem: &[Real],
    fz_elem: &[Real],
    node_range: Chunk,
) {
    for n in node_range.iter() {
        let mut fx = 0.0;
        let mut fy = 0.0;
        let mut fz = 0.0;
        for &c in d.node_elem_corners(n) {
            let c = c as Index;
            fx += fx_elem[c];
            fy += fy_elem[c];
            fz += fz_elem[c];
        }
        d.set_fx(n, fx);
        d.set_fy(n, fy);
        d.set_fz(n, fz);
    }
}

/// Gather per-corner hourglass forces, *adding* to the nodal forces
/// (`CalcFBHourglassForceForElems` epilogue).
pub fn gather_forces_add(
    d: &Domain,
    fx_elem: &[Real],
    fy_elem: &[Real],
    fz_elem: &[Real],
    node_range: Chunk,
) {
    for n in node_range.iter() {
        let mut fx = 0.0;
        let mut fy = 0.0;
        let mut fz = 0.0;
        for &c in d.node_elem_corners(n) {
            let c = c as Index;
            fx += fx_elem[c];
            fy += fy_elem[c];
            fz += fz_elem[c];
        }
        d.set_fx(n, d.fx(n) + fx);
        d.set_fy(n, d.fy(n) + fy);
        d.set_fz(n, d.fz(n) + fz);
    }
}

/// Combined gather used by the task driver after the parallel stress ∥
/// hourglass chains: `f(n) = Σ stress corners + Σ hourglass corners`.
/// Summation order matches `gather_forces_set` followed by
/// `gather_forces_add` bit-for-bit.
#[allow(clippy::too_many_arguments)]
pub fn gather_forces_sum2(
    d: &Domain,
    fx_a: &[Real],
    fy_a: &[Real],
    fz_a: &[Real],
    fx_b: &[Real],
    fy_b: &[Real],
    fz_b: &[Real],
    node_range: Chunk,
) {
    for n in node_range.iter() {
        // One walk over the corner list, two independent accumulators per
        // component: each sum's internal order is unchanged, so the result
        // is bit-identical to gather_forces_set followed by
        // gather_forces_add, at half the index-list traffic.
        let mut fx = 0.0;
        let mut fy = 0.0;
        let mut fz = 0.0;
        let mut gx = 0.0;
        let mut gy = 0.0;
        let mut gz = 0.0;
        for &c in d.node_elem_corners(n) {
            let c = c as Index;
            fx += fx_a[c];
            fy += fy_a[c];
            fz += fz_a[c];
            gx += fx_b[c];
            gy += fy_b[c];
            gz += fz_b[c];
        }
        d.set_fx(n, fx + gx);
        d.set_fy(n, fy + gy);
        d.set_fz(n, fz + gz);
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

    #[test]
    fn init_stress_is_negative_p_plus_q() {
        let d = Domain::build(2, 1, 1, 1, 0);
        d.set_p(3, 2.0);
        d.set_q(3, 0.5);
        let n = d.num_elem();
        let mut sx = vec![0.0; n];
        let mut sy = vec![0.0; n];
        let mut sz = vec![0.0; n];
        init_stress_terms_for_elems(&d, &mut sx, &mut sy, &mut sz, full(&d));
        assert_eq!(sx[3], -2.5);
        assert_eq!(sy[3], -2.5);
        assert_eq!(sz[3], -2.5);
        assert_eq!(sx[0], 0.0);
    }

    #[test]
    fn integrate_stress_zero_stress_gives_zero_forces() {
        let d = Domain::build(3, 1, 1, 1, 0);
        let n = d.num_elem();
        let sx = vec![0.0; n];
        let mut determ = vec![0.0; n];
        let mut fx = vec![1.0; 8 * n];
        let mut fy = vec![1.0; 8 * n];
        let mut fz = vec![1.0; 8 * n];
        integrate_stress_for_elems(
            &d,
            &sx,
            &sx,
            &sx,
            &mut determ,
            &mut fx,
            &mut fy,
            &mut fz,
            full(&d),
        );
        assert!(fx.iter().all(|&f| f == 0.0));
        // Volumes must equal the initial hex volumes.
        for e in 0..n {
            assert!((determ[e] - d.volo(e)).abs() < 1e-12);
        }
        assert!(check_volume_error(&determ).is_ok());
    }

    #[test]
    fn uniform_pressure_forces_cancel_on_interior_nodes() {
        let d = Domain::build(4, 1, 1, 1, 0);
        let n = d.num_elem();
        for e in 0..n {
            d.set_p(e, 1.0);
        }
        let mut sx = vec![0.0; n];
        let mut sy = vec![0.0; n];
        let mut sz = vec![0.0; n];
        init_stress_terms_for_elems(&d, &mut sx, &mut sy, &mut sz, full(&d));
        let mut determ = vec![0.0; n];
        let mut fx = vec![0.0; 8 * n];
        let mut fy = vec![0.0; 8 * n];
        let mut fz = vec![0.0; 8 * n];
        integrate_stress_for_elems(
            &d,
            &sx,
            &sy,
            &sz,
            &mut determ,
            &mut fx,
            &mut fy,
            &mut fz,
            full(&d),
        );
        gather_forces_set(
            &d,
            &fx,
            &fy,
            &fz,
            Chunk {
                begin: 0,
                end: d.num_node(),
            },
        );
        // A strictly interior node is surrounded by 8 identical elements
        // under uniform pressure: its net force must vanish.
        let en = 5;
        let interior = 2 * en * en + 2 * en + 2;
        assert!(d.fx(interior).abs() < 1e-12);
        assert!(d.fy(interior).abs() < 1e-12);
        assert!(d.fz(interior).abs() < 1e-12);
        // A surface node feels a net inward/outward force.
        assert!(d.fx(0).abs() + d.fy(0).abs() + d.fz(0).abs() > 1e-6);
    }

    #[test]
    fn chunked_execution_matches_single_chunk() {
        let d = Domain::build(3, 1, 1, 1, 0);
        let n = d.num_elem();
        for e in 0..n {
            d.set_p(e, (e % 5) as Real * 0.1);
            d.set_q(e, (e % 3) as Real * 0.01);
        }
        // Single chunk.
        let mut sx = vec![0.0; n];
        let mut sy = vec![0.0; n];
        let mut sz = vec![0.0; n];
        init_stress_terms_for_elems(&d, &mut sx, &mut sy, &mut sz, full(&d));
        let mut determ1 = vec![0.0; n];
        let mut fx1 = vec![0.0; 8 * n];
        let mut fy1 = vec![0.0; 8 * n];
        let mut fz1 = vec![0.0; 8 * n];
        integrate_stress_for_elems(
            &d,
            &sx,
            &sy,
            &sz,
            &mut determ1,
            &mut fx1,
            &mut fy1,
            &mut fz1,
            full(&d),
        );
        // Chunked with local scratch, partition size 7.
        let mut fx2 = vec![0.0; 8 * n];
        let mut fy2 = vec![0.0; 8 * n];
        let mut fz2 = vec![0.0; 8 * n];
        let mut determ2 = vec![0.0; n];
        for range in parutil::chunks_of(n, 7) {
            let len = range.len();
            let mut lsx = vec![0.0; len];
            let mut lsy = vec![0.0; len];
            let mut lsz = vec![0.0; len];
            init_stress_terms_for_elems(&d, &mut lsx, &mut lsy, &mut lsz, range);
            integrate_stress_for_elems(
                &d,
                &lsx,
                &lsy,
                &lsz,
                &mut determ2[range.begin..range.end],
                &mut fx2[8 * range.begin..8 * range.end],
                &mut fy2[8 * range.begin..8 * range.end],
                &mut fz2[8 * range.begin..8 * range.end],
                range,
            );
        }
        assert_eq!(fx1, fx2);
        assert_eq!(fy1, fy2);
        assert_eq!(fz1, fz2);
        assert_eq!(determ1, determ2);
    }

    #[test]
    fn sum2_matches_set_then_add() {
        let d = Domain::build(2, 1, 1, 1, 0);
        let n = d.num_elem();
        let a: Vec<Real> = (0..8 * n).map(|i| (i as Real).sin()).collect();
        let b: Vec<Real> = (0..8 * n).map(|i| (i as Real).cos()).collect();
        let nodes = Chunk {
            begin: 0,
            end: d.num_node(),
        };
        gather_forces_set(&d, &a, &a, &a, nodes);
        gather_forces_add(&d, &b, &b, &b, nodes);
        let expect: Vec<Real> = (0..d.num_node()).map(|nn| d.fx(nn)).collect();
        gather_forces_sum2(&d, &a, &a, &a, &b, &b, &b, nodes);
        for (nn, &e) in expect.iter().enumerate() {
            assert_eq!(d.fx(nn), e, "node {nn}");
        }
    }

    #[test]
    fn volume_error_detection() {
        assert!(check_volume_error(&[1.0, 0.5]).is_ok());
        assert_eq!(
            check_volume_error(&[1.0, 0.0]),
            Err(LuleshError::VolumeError)
        );
        assert_eq!(check_volume_error(&[-1.0]), Err(LuleshError::VolumeError));
    }
}
