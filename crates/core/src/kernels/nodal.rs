//! Node-centered update kernels of `LagrangeNodal`:
//! `CalcAccelerationForNodes`, `ApplyAccelerationBoundaryConditionsForNodes`,
//! `CalcVelocityForNodes` and `CalcPositionForNodes`.
//!
//! The paper's chain trick (T2) applies here: velocity and position updates
//! for a node partition depend only on that partition's earlier values, so
//! the task driver chains them without barriers.

use crate::domain::Domain;
use crate::types::{Index, Real};
use parutil::Chunk;

/// `a = F / m` per node.
pub fn calc_acceleration_for_nodes(d: &Domain, range: Chunk) {
    for n in range.iter() {
        let m = d.nodal_mass(n);
        d.set_xdd(n, d.fx(n) / m);
        d.set_ydd(n, d.fy(n) / m);
        d.set_zdd(n, d.fz(n) / m);
    }
}

/// Zero the acceleration component normal to each symmetry plane. The
/// range indexes into the symmetry node lists; for rectangular subdomains
/// the three lists have different lengths (and the ζ list may be empty),
/// so each is guarded individually. Drivers pass a range over
/// [`symm_list_len`].
pub fn apply_acceleration_boundary_conditions(d: &Domain, range: Chunk) {
    for i in range.iter() {
        if i < d.m_symm_x.len() {
            d.set_xdd(d.m_symm_x[i] as Index, 0.0);
        }
        if i < d.m_symm_y.len() {
            d.set_ydd(d.m_symm_y[i] as Index, 0.0);
        }
        if i < d.m_symm_z.len() {
            d.set_zdd(d.m_symm_z[i] as Index, 0.0);
        }
    }
}

/// Loop bound for [`apply_acceleration_boundary_conditions`]: the longest
/// symmetry list.
pub fn symm_list_len(d: &Domain) -> usize {
    d.m_symm_x.len().max(d.m_symm_y.len()).max(d.m_symm_z.len())
}

/// Symmetry-plane acceleration BC applied over a *node-index* range via
/// index arithmetic (node `n` lies on the x=0 plane iff `n % (s+1) == 0`,
/// etc.). Produces exactly the same stores as
/// [`apply_acceleration_boundary_conditions`] but is node-partitionable, so
/// the task driver can fuse it into its per-partition node chains (paper
/// trick T3). Each axis is gated on its symmetry list being non-empty: on
/// a 3-D rank grid a sub-brick's local min plane may be a communication
/// interface rather than a global symmetry plane, and zeroing accelerations
/// there would corrupt the halo-summed forces.
///
/// The node's grid row `(j, k)` is divided out once at `range.begin` and
/// then stepped row by row (a row is the `nx + 1` nodes of one `(j, k)`),
/// so the loop does no division and touches only the nodes it zeroes.
pub fn apply_acceleration_bc_by_node_range(d: &Domain, range: Chunk) {
    let shape = d.shape();
    let (rn, cn) = (shape.nx + 1, shape.ny + 1);
    let has_symm_x = !d.m_symm_x.is_empty();
    let has_symm_y = !d.m_symm_y.is_empty();
    let has_symm_z = !d.m_symm_z.is_empty();
    let row = range.begin / rn;
    let (mut j, mut k) = (row % cn, row / cn);
    let (mut n, mut row_begin) = (range.begin, row * rn);
    while n < range.end {
        let end = (row_begin + rn).min(range.end);
        if has_symm_x && n == row_begin {
            d.set_xdd(n, 0.0);
        }
        if has_symm_y && j == 0 {
            (n..end).for_each(|m| d.set_ydd(m, 0.0));
        }
        if has_symm_z && k == 0 {
            (n..end).for_each(|m| d.set_zdd(m, 0.0));
        }
        (n, row_begin) = (end, row_begin + rn);
        j += 1;
        if j == cn {
            j = 0;
            k += 1;
        }
    }
}

/// `v += a·dt` per node, with tiny velocities snapped to zero (`u_cut`).
pub fn calc_velocity_for_nodes(d: &Domain, dt: Real, u_cut: Real, range: Chunk) {
    for n in range.iter() {
        let mut xdtmp = d.xd(n) + d.xdd(n) * dt;
        if xdtmp.abs() < u_cut {
            xdtmp = 0.0;
        }
        d.set_xd(n, xdtmp);

        let mut ydtmp = d.yd(n) + d.ydd(n) * dt;
        if ydtmp.abs() < u_cut {
            ydtmp = 0.0;
        }
        d.set_yd(n, ydtmp);

        let mut zdtmp = d.zd(n) + d.zdd(n) * dt;
        if zdtmp.abs() < u_cut {
            zdtmp = 0.0;
        }
        d.set_zd(n, zdtmp);
    }
}

/// `x += v·dt` per node.
pub fn calc_position_for_nodes(d: &Domain, dt: Real, range: Chunk) {
    for n in range.iter() {
        d.set_x(n, d.x(n) + d.xd(n) * dt);
        d.set_y(n, d.y(n) + d.yd(n) * dt);
        d.set_z(n, d.z(n) + d.zd(n) * dt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(d: &Domain) -> Chunk {
        Chunk {
            begin: 0,
            end: d.num_node(),
        }
    }

    #[test]
    fn acceleration_is_force_over_mass() {
        let d = Domain::build(2, 1, 1, 1, 0);
        d.set_fx(5, 3.0);
        d.set_fy(5, -1.0);
        calc_acceleration_for_nodes(&d, nodes(&d));
        let m = d.nodal_mass(5);
        assert!((d.xdd(5) - 3.0 / m).abs() < 1e-15);
        assert!((d.ydd(5) + 1.0 / m).abs() < 1e-15);
        assert_eq!(d.zdd(5), 0.0);
    }

    #[test]
    fn symmetry_bc_zeroes_normal_acceleration() {
        let d = Domain::build(3, 1, 1, 1, 0);
        for n in 0..d.num_node() {
            d.set_xdd(n, 1.0);
            d.set_ydd(n, 1.0);
            d.set_zdd(n, 1.0);
        }
        apply_acceleration_boundary_conditions(
            &d,
            Chunk {
                begin: 0,
                end: d.m_symm_x.len(),
            },
        );
        for &n in &d.m_symm_x {
            assert_eq!(d.xdd(n as Index), 0.0);
        }
        for &n in &d.m_symm_y {
            assert_eq!(d.ydd(n as Index), 0.0);
        }
        for &n in &d.m_symm_z {
            assert_eq!(d.zdd(n as Index), 0.0);
        }
        // The far corner node (on no symmetry plane) keeps its acceleration.
        let far = d.num_node() - 1;
        assert_eq!(d.xdd(far), 1.0);
    }

    #[test]
    fn bc_by_index_matches_bc_by_list() {
        let d1 = Domain::build(4, 1, 1, 1, 0);
        let d2 = Domain::build(4, 1, 1, 1, 0);
        for n in 0..d1.num_node() {
            for d in [&d1, &d2] {
                d.set_xdd(n, 1.0 + n as Real);
                d.set_ydd(n, 2.0 + n as Real);
                d.set_zdd(n, 3.0 + n as Real);
            }
        }
        apply_acceleration_boundary_conditions(
            &d1,
            Chunk {
                begin: 0,
                end: d1.m_symm_x.len(),
            },
        );
        for range in parutil::chunks_of(d2.num_node(), 9) {
            apply_acceleration_bc_by_node_range(&d2, range);
        }
        for n in 0..d1.num_node() {
            assert_eq!(d1.xdd(n), d2.xdd(n), "node {n}");
            assert_eq!(d1.ydd(n), d2.ydd(n));
            assert_eq!(d1.zdd(n), d2.zdd(n));
        }
    }

    #[test]
    fn bc_by_index_matches_bc_by_list_on_offset_subbricks() {
        // Sub-bricks of a 3-D rank grid: a brick whose local x=0 (or y=0,
        // z=0) plane is a communication interface has an empty symmetry
        // list for that axis, and the index-arithmetic variant must not
        // zero accelerations there. One brick per grid octant of a 2x2x2
        // split of a size-4 cube. Chunks of 1 and of `nx + 2` nodes start
        // mid-row and mid-plane, where the variant's stepped grid position
        // must pick up.
        use crate::mesh::MeshShape;
        for &(ox, oy, oz) in &[
            (0, 0, 0),
            (2, 0, 0),
            (0, 2, 0),
            (0, 0, 2),
            (2, 2, 0),
            (2, 2, 2),
        ] {
            let shape = MeshShape::brick((2, 2, 2), (4, 4, 4), (ox, oy, oz));
            let build = || {
                let d = Domain::build_subdomain(shape, 1, 1, 1, 0);
                for n in 0..d.num_node() {
                    d.set_xdd(n, 1.0 + n as Real);
                    d.set_ydd(n, 2.0 + n as Real);
                    d.set_zdd(n, 3.0 + n as Real);
                }
                d
            };
            let d1 = build();
            apply_acceleration_boundary_conditions(
                &d1,
                Chunk {
                    begin: 0,
                    end: symm_list_len(&d1),
                },
            );
            for part in [1, 7, shape.nx + 2] {
                let d2 = build();
                for range in parutil::chunks_of(d2.num_node(), part) {
                    apply_acceleration_bc_by_node_range(&d2, range);
                }
                for n in 0..d1.num_node() {
                    let at = format!("offset {:?} chunk {part} node {n}", (ox, oy, oz));
                    assert_eq!(d1.xdd(n), d2.xdd(n), "{at}");
                    assert_eq!(d1.ydd(n), d2.ydd(n), "{at}");
                    assert_eq!(d1.zdd(n), d2.zdd(n), "{at}");
                }
            }
        }
    }

    #[test]
    fn velocity_integration_and_ucut() {
        let d = Domain::build(2, 1, 1, 1, 0);
        d.set_xd(0, 1.0);
        d.set_xdd(0, 2.0);
        d.set_yd(0, 1e-8);
        d.set_ydd(0, 0.0);
        calc_velocity_for_nodes(&d, 0.5, 1e-7, nodes(&d));
        assert!((d.xd(0) - 2.0).abs() < 1e-15);
        assert_eq!(d.yd(0), 0.0, "below u_cut must snap to zero");
    }

    #[test]
    fn position_integration() {
        let d = Domain::build(2, 1, 1, 1, 0);
        let x0 = d.x(7);
        d.set_xd(7, 2.0);
        calc_position_for_nodes(&d, 0.25, nodes(&d));
        assert!((d.x(7) - (x0 + 0.5)).abs() < 1e-15);
    }

    #[test]
    fn chunked_matches_full_range() {
        let d1 = Domain::build(3, 1, 1, 1, 0);
        let d2 = Domain::build(3, 1, 1, 1, 0);
        for n in 0..d1.num_node() {
            for d in [&d1, &d2] {
                d.set_fx(n, (n as Real).sin());
                d.set_fy(n, (n as Real).cos());
                d.set_fz(n, 0.1 * n as Real);
            }
        }
        calc_acceleration_for_nodes(&d1, nodes(&d1));
        calc_velocity_for_nodes(&d1, 1e-3, 1e-7, nodes(&d1));
        calc_position_for_nodes(&d1, 1e-3, nodes(&d1));
        for range in parutil::chunks_of(d2.num_node(), 11) {
            calc_acceleration_for_nodes(&d2, range);
        }
        for range in parutil::chunks_of(d2.num_node(), 13) {
            calc_velocity_for_nodes(&d2, 1e-3, 1e-7, range);
        }
        for range in parutil::chunks_of(d2.num_node(), 17) {
            calc_position_for_nodes(&d2, 1e-3, range);
        }
        for n in 0..d1.num_node() {
            assert_eq!(d1.x(n), d2.x(n));
            assert_eq!(d1.xd(n), d2.xd(n));
            assert_eq!(d1.xdd(n), d2.xdd(n));
        }
    }
}
