//! Artificial viscosity (`CalcQForElems`): monotonic q velocity/position
//! gradients and the region-wise limiter evaluation.
//!
//! `CalcMonotonicQGradientsForElems` is element-local (reads only the
//! element's own nodes), so the task driver chains it after kinematics.
//! `CalcMonotonicQRegionForElems` reads *neighbour* elements' gradients via
//! `lxim`/`lxip`/…, which is exactly why the paper needs a global barrier
//! between the two (one of the 7 per iteration).

use crate::domain::Domain;
use crate::params::Params;
use crate::types::{bc, Index, LuleshError, Real};
use parutil::Chunk;

const PTINY: Real = 1.0e-36;

/// Velocity and position gradients in the three logical directions
/// (`delv_xi/eta/zeta`, `delx_xi/eta/zeta`).
///
/// Scalar at every `--simd` width. The kernel is bound by its 48 nodal
/// gathers and six scattered stores, and its `Lanes<W>` port measured
/// slower than this loop at every width (EXPERIMENTS.md). A trial port onto
/// the four hot kernels' `__m256d` pack was bit-identical and ran 2.50 ms
/// against this loop's 3.75 ms at s45, so it would pay on AVX2 hosts; it is
/// not in the tree (ROADMAP item 10).
pub fn calc_monotonic_q_gradients_for_elems(d: &Domain, range: Chunk) {
    for i in range.iter() {
        let nl = d.nodelist(i);
        let n0 = nl[0] as Index;
        let n1 = nl[1] as Index;
        let n2 = nl[2] as Index;
        let n3 = nl[3] as Index;
        let n4 = nl[4] as Index;
        let n5 = nl[5] as Index;
        let n6 = nl[6] as Index;
        let n7 = nl[7] as Index;

        let x0 = d.x(n0);
        let x1 = d.x(n1);
        let x2 = d.x(n2);
        let x3 = d.x(n3);
        let x4 = d.x(n4);
        let x5 = d.x(n5);
        let x6 = d.x(n6);
        let x7 = d.x(n7);

        let y0 = d.y(n0);
        let y1 = d.y(n1);
        let y2 = d.y(n2);
        let y3 = d.y(n3);
        let y4 = d.y(n4);
        let y5 = d.y(n5);
        let y6 = d.y(n6);
        let y7 = d.y(n7);

        let z0 = d.z(n0);
        let z1 = d.z(n1);
        let z2 = d.z(n2);
        let z3 = d.z(n3);
        let z4 = d.z(n4);
        let z5 = d.z(n5);
        let z6 = d.z(n6);
        let z7 = d.z(n7);

        let xv0 = d.xd(n0);
        let xv1 = d.xd(n1);
        let xv2 = d.xd(n2);
        let xv3 = d.xd(n3);
        let xv4 = d.xd(n4);
        let xv5 = d.xd(n5);
        let xv6 = d.xd(n6);
        let xv7 = d.xd(n7);

        let yv0 = d.yd(n0);
        let yv1 = d.yd(n1);
        let yv2 = d.yd(n2);
        let yv3 = d.yd(n3);
        let yv4 = d.yd(n4);
        let yv5 = d.yd(n5);
        let yv6 = d.yd(n6);
        let yv7 = d.yd(n7);

        let zv0 = d.zd(n0);
        let zv1 = d.zd(n1);
        let zv2 = d.zd(n2);
        let zv3 = d.zd(n3);
        let zv4 = d.zd(n4);
        let zv5 = d.zd(n5);
        let zv6 = d.zd(n6);
        let zv7 = d.zd(n7);

        let vol = d.volo(i) * d.vnew(i);
        let norm = 1.0 / (vol + PTINY);

        let dxj = -0.25 * ((x0 + x1 + x5 + x4) - (x3 + x2 + x6 + x7));
        let dyj = -0.25 * ((y0 + y1 + y5 + y4) - (y3 + y2 + y6 + y7));
        let dzj = -0.25 * ((z0 + z1 + z5 + z4) - (z3 + z2 + z6 + z7));

        let dxi = 0.25 * ((x1 + x2 + x6 + x5) - (x0 + x3 + x7 + x4));
        let dyi = 0.25 * ((y1 + y2 + y6 + y5) - (y0 + y3 + y7 + y4));
        let dzi = 0.25 * ((z1 + z2 + z6 + z5) - (z0 + z3 + z7 + z4));

        let dxk = 0.25 * ((x4 + x5 + x6 + x7) - (x0 + x1 + x2 + x3));
        let dyk = 0.25 * ((y4 + y5 + y6 + y7) - (y0 + y1 + y2 + y3));
        let dzk = 0.25 * ((z4 + z5 + z6 + z7) - (z0 + z1 + z2 + z3));

        // find delvk and delxk ( i cross j ).
        let mut ax = dyi * dzj - dzi * dyj;
        let mut ay = dzi * dxj - dxi * dzj;
        let mut az = dxi * dyj - dyi * dxj;

        d.set_delx_zeta(i, vol / (ax * ax + ay * ay + az * az + PTINY).sqrt());

        ax *= norm;
        ay *= norm;
        az *= norm;

        let mut dxv = 0.25 * ((xv4 + xv5 + xv6 + xv7) - (xv0 + xv1 + xv2 + xv3));
        let mut dyv = 0.25 * ((yv4 + yv5 + yv6 + yv7) - (yv0 + yv1 + yv2 + yv3));
        let mut dzv = 0.25 * ((zv4 + zv5 + zv6 + zv7) - (zv0 + zv1 + zv2 + zv3));

        d.set_delv_zeta(i, ax * dxv + ay * dyv + az * dzv);

        // find delxi and delvi ( j cross k ).
        ax = dyj * dzk - dzj * dyk;
        ay = dzj * dxk - dxj * dzk;
        az = dxj * dyk - dyj * dxk;

        d.set_delx_xi(i, vol / (ax * ax + ay * ay + az * az + PTINY).sqrt());

        ax *= norm;
        ay *= norm;
        az *= norm;

        dxv = 0.25 * ((xv1 + xv2 + xv6 + xv5) - (xv0 + xv3 + xv7 + xv4));
        dyv = 0.25 * ((yv1 + yv2 + yv6 + yv5) - (yv0 + yv3 + yv7 + yv4));
        dzv = 0.25 * ((zv1 + zv2 + zv6 + zv5) - (zv0 + zv3 + zv7 + zv4));

        d.set_delv_xi(i, ax * dxv + ay * dyv + az * dzv);

        // find delxj and delvj ( k cross i ).
        ax = dyk * dzi - dzk * dyi;
        ay = dzk * dxi - dxk * dzi;
        az = dxk * dyi - dyk * dxi;

        d.set_delx_eta(i, vol / (ax * ax + ay * ay + az * az + PTINY).sqrt());

        ax *= norm;
        ay *= norm;
        az *= norm;

        dxv = -0.25 * ((xv0 + xv1 + xv5 + xv4) - (xv3 + xv2 + xv6 + xv7));
        dyv = -0.25 * ((yv0 + yv1 + yv5 + yv4) - (yv3 + yv2 + yv6 + yv7));
        dzv = -0.25 * ((zv0 + zv1 + zv5 + zv4) - (zv3 + zv2 + zv6 + zv7));

        d.set_delv_eta(i, ax * dxv + ay * dyv + az * dzv);
    }
}

/// The monotonic-q limiter for a slice of one region's element list:
/// computes `qq` (quadratic term) and `ql` (linear term) per element.
///
/// Scalar at every `--simd` width: the boundary-condition neighbour fetches
/// are irregular per element, and a lane body measured slower than this
/// loop at every width (EXPERIMENTS.md), so none is kept.
pub fn calc_monotonic_q_region_for_elems(d: &Domain, elems: &[usize], p: &Params) {
    let monoq_limiter_mult = p.monoq_limiter_mult;
    let monoq_max_slope = p.monoq_max_slope;
    let qlc_monoq = p.qlc_monoq;
    let qqc_monoq = p.qqc_monoq;

    for &i in elems {
        let bc_mask = d.m_elem_bc[i];

        // Phi ξ.
        let norm = 1.0 / (d.delv_xi(i) + PTINY);

        let mut delvm = match bc_mask & bc::XI_M {
            0 | bc::XI_M_COMM => d.delv_xi(d.m_lxim[i] as Index),
            bc::XI_M_SYMM => d.delv_xi(i),
            bc::XI_M_FREE => 0.0,
            other => unreachable!("bad ξ− boundary flags {other:#x}"),
        };
        let mut delvp = match bc_mask & bc::XI_P {
            0 | bc::XI_P_COMM => d.delv_xi(d.m_lxip[i] as Index),
            bc::XI_P_SYMM => d.delv_xi(i),
            bc::XI_P_FREE => 0.0,
            other => unreachable!("bad ξ+ boundary flags {other:#x}"),
        };

        delvm *= norm;
        delvp *= norm;

        let mut phixi = 0.5 * (delvm + delvp);

        delvm *= monoq_limiter_mult;
        delvp *= monoq_limiter_mult;

        if delvm < phixi {
            phixi = delvm;
        }
        if delvp < phixi {
            phixi = delvp;
        }
        if phixi < 0.0 {
            phixi = 0.0;
        }
        if phixi > monoq_max_slope {
            phixi = monoq_max_slope;
        }

        // Phi η.
        let norm = 1.0 / (d.delv_eta(i) + PTINY);

        let mut delvm = match bc_mask & bc::ETA_M {
            0 | bc::ETA_M_COMM => d.delv_eta(d.m_letam[i] as Index),
            bc::ETA_M_SYMM => d.delv_eta(i),
            bc::ETA_M_FREE => 0.0,
            other => unreachable!("bad η− boundary flags {other:#x}"),
        };
        let mut delvp = match bc_mask & bc::ETA_P {
            0 | bc::ETA_P_COMM => d.delv_eta(d.m_letap[i] as Index),
            bc::ETA_P_SYMM => d.delv_eta(i),
            bc::ETA_P_FREE => 0.0,
            other => unreachable!("bad η+ boundary flags {other:#x}"),
        };

        delvm *= norm;
        delvp *= norm;

        let mut phieta = 0.5 * (delvm + delvp);

        delvm *= monoq_limiter_mult;
        delvp *= monoq_limiter_mult;

        if delvm < phieta {
            phieta = delvm;
        }
        if delvp < phieta {
            phieta = delvp;
        }
        if phieta < 0.0 {
            phieta = 0.0;
        }
        if phieta > monoq_max_slope {
            phieta = monoq_max_slope;
        }

        // Phi ζ.
        let norm = 1.0 / (d.delv_zeta(i) + PTINY);

        let mut delvm = match bc_mask & bc::ZETA_M {
            0 | bc::ZETA_M_COMM => d.delv_zeta(d.m_lzetam[i] as Index),
            bc::ZETA_M_SYMM => d.delv_zeta(i),
            bc::ZETA_M_FREE => 0.0,
            other => unreachable!("bad ζ− boundary flags {other:#x}"),
        };
        let mut delvp = match bc_mask & bc::ZETA_P {
            0 | bc::ZETA_P_COMM => d.delv_zeta(d.m_lzetap[i] as Index),
            bc::ZETA_P_SYMM => d.delv_zeta(i),
            bc::ZETA_P_FREE => 0.0,
            other => unreachable!("bad ζ+ boundary flags {other:#x}"),
        };

        delvm *= norm;
        delvp *= norm;

        let mut phizeta = 0.5 * (delvm + delvp);

        delvm *= monoq_limiter_mult;
        delvp *= monoq_limiter_mult;

        if delvm < phizeta {
            phizeta = delvm;
        }
        if delvp < phizeta {
            phizeta = delvp;
        }
        if phizeta < 0.0 {
            phizeta = 0.0;
        }
        if phizeta > monoq_max_slope {
            phizeta = monoq_max_slope;
        }

        // Remove length scale.
        let (qlin, qquad) = if d.vdov(i) > 0.0 {
            (0.0, 0.0)
        } else {
            let mut delvxxi = d.delv_xi(i) * d.delx_xi(i);
            let mut delvxeta = d.delv_eta(i) * d.delx_eta(i);
            let mut delvxzeta = d.delv_zeta(i) * d.delx_zeta(i);

            if delvxxi > 0.0 {
                delvxxi = 0.0;
            }
            if delvxeta > 0.0 {
                delvxeta = 0.0;
            }
            if delvxzeta > 0.0 {
                delvxzeta = 0.0;
            }

            let rho = d.elem_mass(i) / (d.volo(i) * d.vnew(i));

            let qlin = -qlc_monoq
                * rho
                * (delvxxi * (1.0 - phixi)
                    + delvxeta * (1.0 - phieta)
                    + delvxzeta * (1.0 - phizeta));

            let qquad = qqc_monoq
                * rho
                * (delvxxi * delvxxi * (1.0 - phixi * phixi)
                    + delvxeta * delvxeta * (1.0 - phieta * phieta)
                    + delvxzeta * delvxzeta * (1.0 - phizeta * phizeta));

            (qlin, qquad)
        };

        d.set_qq(i, qquad);
        d.set_ql(i, qlin);
    }
}

/// `CalcQForElems` epilogue: abort if the artificial viscosity exceeded
/// `qstop` anywhere.
pub fn check_q_stop(d: &Domain, qstop: Real, range: Chunk) -> Result<(), LuleshError> {
    for i in range.iter() {
        if d.q(i) > qstop {
            return Err(LuleshError::QStopError);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::kinematics::calc_kinematics_for_elems;

    fn elems(d: &Domain) -> Chunk {
        Chunk {
            begin: 0,
            end: d.num_elem(),
        }
    }

    fn prep(d: &Domain) {
        calc_kinematics_for_elems(d, 0.0, elems(d));
        crate::kernels::kinematics::calc_lagrange_elements_finish(d, elems(d)).unwrap();
    }

    #[test]
    fn static_mesh_has_zero_velocity_gradients() {
        let d = Domain::build(3, 1, 1, 1, 0);
        prep(&d);
        calc_monotonic_q_gradients_for_elems(&d, elems(&d));
        for i in 0..d.num_elem() {
            assert!(d.delv_xi(i).abs() < 1e-14);
            assert!(d.delv_eta(i).abs() < 1e-14);
            assert!(d.delv_zeta(i).abs() < 1e-14);
            // delx is the element extent in each direction: mesh spacing.
            let h = crate::params::MESH_EXTENT / 3.0;
            assert!(
                (d.delx_xi(i) - h).abs() < 1e-9,
                "delx_xi = {}",
                d.delx_xi(i)
            );
            assert!((d.delx_eta(i) - h).abs() < 1e-9);
            assert!((d.delx_zeta(i) - h).abs() < 1e-9);
        }
    }

    #[test]
    fn uniform_compression_gives_negative_delv() {
        let d = Domain::build(3, 1, 1, 1, 0);
        // Velocity field pointing inward: v = -c·x.
        for n in 0..d.num_node() {
            d.set_xd(n, -0.1 * d.x(n));
            d.set_yd(n, -0.1 * d.y(n));
            d.set_zd(n, -0.1 * d.z(n));
        }
        prep(&d);
        calc_monotonic_q_gradients_for_elems(&d, elems(&d));
        for i in 0..d.num_elem() {
            assert!(d.delv_xi(i) < 0.0, "compression must give negative delv_xi");
            assert!(d.delv_eta(i) < 0.0);
            assert!(d.delv_zeta(i) < 0.0);
        }
    }

    #[test]
    fn q_region_zero_for_static_mesh() {
        let d = Domain::build(3, 2, 1, 1, 0);
        prep(&d);
        calc_monotonic_q_gradients_for_elems(&d, elems(&d));
        let p = Params::default();
        for r in 0..d.num_reg() {
            calc_monotonic_q_region_for_elems(&d, &d.regions.reg_elem_list[r], &p);
        }
        for i in 0..d.num_elem() {
            assert_eq!(d.qq(i), 0.0);
            assert_eq!(d.ql(i), 0.0);
        }
    }

    #[test]
    fn q_region_positive_under_uniform_compression() {
        let d = Domain::build(4, 1, 1, 1, 0);
        for n in 0..d.num_node() {
            d.set_xd(n, -0.5 * d.x(n));
            d.set_yd(n, -0.5 * d.y(n));
            d.set_zd(n, -0.5 * d.z(n));
        }
        prep(&d);
        calc_monotonic_q_gradients_for_elems(&d, elems(&d));
        let p = Params::default();
        calc_monotonic_q_region_for_elems(&d, &d.regions.reg_elem_list[0], &p);
        // Compression (vdov < 0) must produce non-negative q terms, and
        // strictly positive ones somewhere.
        let mut any = false;
        for i in 0..d.num_elem() {
            assert!(d.qq(i) >= 0.0);
            assert!(d.ql(i) >= 0.0);
            any |= d.ql(i) > 0.0;
        }
        assert!(any, "expected nonzero viscosity under compression");
    }

    #[test]
    fn expansion_gives_zero_q() {
        let d = Domain::build(3, 1, 1, 1, 0);
        for n in 0..d.num_node() {
            d.set_xd(n, 0.3 * d.x(n));
            d.set_yd(n, 0.3 * d.y(n));
            d.set_zd(n, 0.3 * d.z(n));
        }
        prep(&d);
        calc_monotonic_q_gradients_for_elems(&d, elems(&d));
        let p = Params::default();
        calc_monotonic_q_region_for_elems(&d, &d.regions.reg_elem_list[0], &p);
        for i in 0..d.num_elem() {
            assert_eq!(d.qq(i), 0.0, "vdov > 0 must zero the q terms");
            assert_eq!(d.ql(i), 0.0);
        }
    }

    #[test]
    fn qstop_check() {
        let d = Domain::build(2, 1, 1, 1, 0);
        assert!(check_q_stop(&d, 1e12, elems(&d)).is_ok());
        d.set_q(5, 2e12);
        assert_eq!(
            check_q_stop(&d, 1e12, elems(&d)),
            Err(LuleshError::QStopError)
        );
    }
}
