//! The LULESH `Domain`: all node- and element-centered fields, mesh
//! connectivity, region decomposition, and problem initialization (Sedov
//! blast energy deposit, masses, initial timestep).
//!
//! # Sharing model
//!
//! The C++ original passes `Domain&` everywhere and lets OpenMP threads
//! write disjoint indices. We reproduce that model: every mutable field is a
//! [`SharedVec`] and the getter/setter accessors (`d.x(i)`, `d.set_x(i, v)`)
//! compile to raw-pointer loads/stores. **The safety contract lives at the
//! driver level**: within one parallel phase, no two tasks may touch the
//! same index of the same array with a write involved, and phases are
//! separated by barriers/dependencies. The serial driver trivially satisfies
//! this; the parallel drivers satisfy it structurally (disjoint partitions,
//! disjoint regions, element-owned scratch) and the integration tests verify
//! their results against the serial driver bit-for-bit.

use crate::kernels::volume::calc_elem_volume;
use crate::mesh::{self, Face, MeshShape};
use crate::params::{Params, EBASE};
use crate::regions::Regions;
use crate::types::{Index, MeshIndex, Real};
use parutil::SharedVec;

macro_rules! real_fields {
    ($(#[$m:meta] $get:ident $set:ident $field:ident;)*) => {
        $(
            #[$m]
            #[inline]
            pub fn $get(&self, i: Index) -> Real {
                // SAFETY: phase-disjoint access contract (see type docs).
                unsafe { self.$field.load(i) }
            }
            #[doc = concat!("Setter counterpart of [`Self::", stringify!($get), "`].")]
            #[inline]
            pub fn $set(&self, i: Index, v: Real) {
                // SAFETY: phase-disjoint access contract (see type docs).
                unsafe { self.$field.write(i, v) }
            }
        )*
    };
}

/// All mesh-resident state of a LULESH problem.
pub struct Domain {
    // --- problem shape ---
    shape: MeshShape,
    num_elem: Index,
    num_node: Index,

    // --- node-centered fields ---
    /// Node coordinates.
    pub m_x: SharedVec<Real>,
    /// Node coordinates.
    pub m_y: SharedVec<Real>,
    /// Node coordinates.
    pub m_z: SharedVec<Real>,
    /// Node velocities.
    pub m_xd: SharedVec<Real>,
    /// Node velocities.
    pub m_yd: SharedVec<Real>,
    /// Node velocities.
    pub m_zd: SharedVec<Real>,
    /// Node accelerations.
    pub m_xdd: SharedVec<Real>,
    /// Node accelerations.
    pub m_ydd: SharedVec<Real>,
    /// Node accelerations.
    pub m_zdd: SharedVec<Real>,
    /// Nodal forces.
    pub m_fx: SharedVec<Real>,
    /// Nodal forces.
    pub m_fy: SharedVec<Real>,
    /// Nodal forces.
    pub m_fz: SharedVec<Real>,
    /// Nodal mass.
    pub m_nodal_mass: SharedVec<Real>,

    // --- element-centered fields ---
    /// Internal energy.
    pub m_e: SharedVec<Real>,
    /// Pressure.
    pub m_p: SharedVec<Real>,
    /// Artificial viscosity.
    pub m_q: SharedVec<Real>,
    /// Linear term of q.
    pub m_ql: SharedVec<Real>,
    /// Quadratic term of q.
    pub m_qq: SharedVec<Real>,
    /// Relative volume.
    pub m_v: SharedVec<Real>,
    /// Reference (initial) volume.
    pub m_volo: SharedVec<Real>,
    /// Relative volume change this step (`vnew − v`).
    pub m_delv: SharedVec<Real>,
    /// Volume derivative over volume.
    pub m_vdov: SharedVec<Real>,
    /// Element characteristic length.
    pub m_arealg: SharedVec<Real>,
    /// Sound speed.
    pub m_ss: SharedVec<Real>,
    /// Element mass.
    pub m_elem_mass: SharedVec<Real>,
    /// New relative volume (step-scratch in the reference; persistent here).
    pub m_vnew: SharedVec<Real>,
    /// Principal strain scratch.
    pub m_dxx: SharedVec<Real>,
    /// Principal strain scratch.
    pub m_dyy: SharedVec<Real>,
    /// Principal strain scratch.
    pub m_dzz: SharedVec<Real>,
    /// Monotonic-q velocity gradient scratch.
    pub m_delv_xi: SharedVec<Real>,
    /// Monotonic-q velocity gradient scratch.
    pub m_delv_eta: SharedVec<Real>,
    /// Monotonic-q velocity gradient scratch.
    pub m_delv_zeta: SharedVec<Real>,
    /// Monotonic-q position gradient scratch.
    pub m_delx_xi: SharedVec<Real>,
    /// Monotonic-q position gradient scratch.
    pub m_delx_eta: SharedVec<Real>,
    /// Monotonic-q position gradient scratch.
    pub m_delx_zeta: SharedVec<Real>,

    // --- immutable connectivity, stored at `Index_t` width ---
    /// 8 node indices per element.
    pub m_nodelist: Vec<MeshIndex>,
    /// ξ− face neighbour.
    pub m_lxim: Vec<MeshIndex>,
    /// ξ+ face neighbour.
    pub m_lxip: Vec<MeshIndex>,
    /// η− face neighbour.
    pub m_letam: Vec<MeshIndex>,
    /// η+ face neighbour.
    pub m_letap: Vec<MeshIndex>,
    /// ζ− face neighbour.
    pub m_lzetam: Vec<MeshIndex>,
    /// ζ+ face neighbour.
    pub m_lzetap: Vec<MeshIndex>,
    /// Boundary-condition flags.
    pub m_elem_bc: Vec<i32>,
    /// Symmetry-plane node lists.
    pub m_symm_x: Vec<MeshIndex>,
    /// Symmetry-plane node lists.
    pub m_symm_y: Vec<MeshIndex>,
    /// Symmetry-plane node lists.
    pub m_symm_z: Vec<MeshIndex>,
    /// Node→element-corner list offsets (length `num_node + 1`).
    pub m_node_elem_start: Vec<MeshIndex>,
    /// Node→element-corner entries (`8·elem + corner`).
    pub m_node_elem_corner_list: Vec<MeshIndex>,

    /// Region decomposition.
    pub regions: Regions,
    /// Scalar control parameters.
    pub params: Params,
    /// Analytic-CFL initial timestep.
    initial_dt: Real,
}

impl Domain {
    /// Build a single-node Sedov problem of `size³` elements divided into
    /// `num_reg` regions (balance/cost as in the reference's `-b`/`-c`
    /// flags; `seed` fixes the region assignment).
    pub fn build(size: Index, num_reg: usize, balance: i32, cost: i32, seed: u64) -> Self {
        assert!(size >= 1, "problem size must be >= 1");
        Self::build_subdomain(MeshShape::cube(size), num_reg, balance, cost, seed)
    }

    /// Build one sub-brick of the global Sedov cube (the basis of the
    /// `multidom` multi-domain extension). Internal faces carry COMM
    /// boundary flags and ghost regions for the monotonic-q gradients; the
    /// blast energy is deposited only on the subdomain containing the
    /// global origin element.
    ///
    /// Panics, before allocating, if the brick's indices overflow
    /// [`MeshIndex`] (a cube edge above [`mesh::MAX_EDGE`]).
    pub fn build_subdomain(
        shape: MeshShape,
        num_reg: usize,
        balance: i32,
        cost: i32,
        seed: u64,
    ) -> Self {
        assert!(shape.nx >= 1 && shape.ny >= 1 && shape.nz >= 1);
        mesh::assert_fits(shape);
        assert!(
            shape.x_offset + shape.nx <= shape.global_nx
                && shape.y_offset + shape.ny <= shape.global_ny
                && shape.z_offset + shape.nz <= shape.global_nz,
            "sub-brick exceeds the global mesh"
        );
        debug_assert!(
            shape.global_nx == shape.global_ny && shape.global_ny == shape.global_nz,
            "the Sedov problem is defined on a cube"
        );
        let num_elem = shape.num_elem();
        let num_node = shape.num_node();

        // Every array is allocated once and written in place: a page is
        // faulted by its first write, never by a copy.
        let blank_e = || SharedVec::zeroed(num_elem);
        let blank_n = || SharedVec::zeroed(num_node);
        let (mut m_x, mut m_y, mut m_z) = (blank_n(), blank_n(), blank_n());
        mesh::fill_coordinates(
            shape,
            m_x.as_mut_slice(),
            m_y.as_mut_slice(),
            m_z.as_mut_slice(),
        );
        let nodelist = mesh::build_nodelist(shape);
        let (lxim, lxip, letam, letap, lzetam, lzetap) = mesh::build_connectivity(shape);
        let elem_bc = mesh::build_boundary_conditions(shape);
        let (symm_x, symm_y, symm_z) = mesh::build_symmetry_planes(shape);
        let (node_elem_start, node_elem_corner_list) =
            mesh::build_node_elem_corners(&nodelist, num_node);
        let regions = Regions::create(num_elem, num_reg, balance, cost, seed);

        // Initialize volumes and masses from the initial geometry. For
        // subdomains, boundary-plane nodal masses are completed by the
        // halo exchange in `multidom`.
        let (mut m_volo, mut m_elem_mass, mut m_nodal_mass) = (blank_e(), blank_e(), blank_n());
        let (x, y, z) = (m_x.as_mut_slice(), m_y.as_mut_slice(), m_z.as_mut_slice());
        let volo = m_volo.as_mut_slice();
        let elem_mass = m_elem_mass.as_mut_slice();
        let nodal_mass = m_nodal_mass.as_mut_slice();
        let mut xl = [0.0; 8];
        let mut yl = [0.0; 8];
        let mut zl = [0.0; 8];
        for e in 0..num_elem {
            let nl = &nodelist[8 * e..8 * e + 8];
            for c in 0..8 {
                let n = nl[c] as Index;
                xl[c] = x[n];
                yl[c] = y[n];
                zl[c] = z[n];
            }
            let volume = calc_elem_volume(&xl, &yl, &zl);
            volo[e] = volume;
            elem_mass[e] = volume;
            for &n in nl {
                nodal_mass[n as Index] += volume / 8.0;
            }
        }

        // Deposit the blast energy in the global origin element (local
        // element 0 of the origin sub-brick), scaled so the problem is
        // size-invariant, and derive the analytic-CFL initial dt (the same
        // value on every subdomain). The scale uses the *global* extent so
        // every sub-brick of one problem agrees on the deposit.
        let scale = shape.global_nx as Real / 45.0;
        let einit = EBASE * scale * scale * scale;
        let mut m_e = blank_e();
        if shape.x_offset == 0 && shape.y_offset == 0 && shape.z_offset == 0 {
            m_e.as_mut_slice()[0] = einit;
        }
        let initial_dt = 0.5 * volo[0].cbrt() / (2.0 * einit).sqrt();

        // Ghost element regions for the monotonic-q gradients: one region
        // per COMM face, laid out after the real elements in Face order.
        let grad_len = shape.grad_len();

        let zeros_e = || SharedVec::from_elem(0.0, num_elem);
        let zeros_g = || SharedVec::from_elem(0.0, grad_len);
        let zeros_n = || SharedVec::from_elem(0.0, num_node);

        Self {
            shape,
            num_elem,
            num_node,
            m_x,
            m_y,
            m_z,
            m_xd: zeros_n(),
            m_yd: zeros_n(),
            m_zd: zeros_n(),
            m_xdd: zeros_n(),
            m_ydd: zeros_n(),
            m_zdd: zeros_n(),
            m_fx: zeros_n(),
            m_fy: zeros_n(),
            m_fz: zeros_n(),
            m_nodal_mass,
            m_e,
            m_p: zeros_e(),
            m_q: zeros_e(),
            m_ql: zeros_e(),
            m_qq: zeros_e(),
            m_v: SharedVec::from_elem(1.0, num_elem),
            m_volo,
            m_delv: zeros_e(),
            m_vdov: zeros_e(),
            m_arealg: zeros_e(),
            m_ss: zeros_e(),
            m_elem_mass,
            m_vnew: zeros_e(),
            m_dxx: zeros_e(),
            m_dyy: zeros_e(),
            m_dzz: zeros_e(),
            m_delv_xi: zeros_g(),
            m_delv_eta: zeros_g(),
            m_delv_zeta: zeros_g(),
            m_delx_xi: zeros_e(),
            m_delx_eta: zeros_e(),
            m_delx_zeta: zeros_e(),
            m_nodelist: nodelist,
            m_lxim: lxim,
            m_lxip: lxip,
            m_letam: letam,
            m_letap: letap,
            m_lzetam: lzetam,
            m_lzetap: lzetap,
            m_elem_bc: elem_bc,
            m_symm_x: symm_x,
            m_symm_y: symm_y,
            m_symm_z: symm_z,
            m_node_elem_start: node_elem_start,
            m_node_elem_corner_list: node_elem_corner_list,
            regions,
            params: Params::default(),
            initial_dt,
        }
    }

    /// Edge length in elements (`-s`; the ξ extent for subdomains).
    #[inline]
    pub fn size(&self) -> Index {
        self.shape.nx
    }

    /// The mesh shape (extents and slab position).
    #[inline]
    pub fn shape(&self) -> MeshShape {
        self.shape
    }

    /// Ghost-region base index for a COMM face's halo in the gradient
    /// arrays (`delv_xi/eta/zeta`), if this subdomain has one.
    #[inline]
    pub fn ghost_base(&self, face: Face) -> Option<Index> {
        self.shape.ghost_base(face)
    }

    /// Total element count (`nx·ny·nz`).
    #[inline]
    pub fn num_elem(&self) -> Index {
        self.num_elem
    }

    /// Total node count (`(nx+1)(ny+1)(nz+1)`).
    #[inline]
    pub fn num_node(&self) -> Index {
        self.num_node
    }

    /// Number of regions.
    #[inline]
    pub fn num_reg(&self) -> usize {
        self.regions.num_reg
    }

    /// Analytic-CFL initial timestep.
    #[inline]
    pub fn initial_dt(&self) -> Real {
        self.initial_dt
    }

    /// The 8 node indices of element `e`.
    #[inline]
    pub fn nodelist(&self, e: Index) -> &[MeshIndex] {
        &self.m_nodelist[8 * e..8 * e + 8]
    }

    /// Element-corner entries of node `n` (each is `8·elem + corner`), in
    /// ascending order.
    #[inline]
    pub fn node_elem_corners(&self, n: Index) -> &[MeshIndex] {
        let start = &self.m_node_elem_start;
        &self.m_node_elem_corner_list[start[n] as Index..start[n + 1] as Index]
    }

    real_fields! {
        /// Node x-coordinate.
        x set_x m_x;
        /// Node y-coordinate.
        y set_y m_y;
        /// Node z-coordinate.
        z set_z m_z;
        /// Node x-velocity.
        xd set_xd m_xd;
        /// Node y-velocity.
        yd set_yd m_yd;
        /// Node z-velocity.
        zd set_zd m_zd;
        /// Node x-acceleration.
        xdd set_xdd m_xdd;
        /// Node y-acceleration.
        ydd set_ydd m_ydd;
        /// Node z-acceleration.
        zdd set_zdd m_zdd;
        /// Nodal x-force.
        fx set_fx m_fx;
        /// Nodal y-force.
        fy set_fy m_fy;
        /// Nodal z-force.
        fz set_fz m_fz;
        /// Nodal mass.
        nodal_mass set_nodal_mass m_nodal_mass;
        /// Element internal energy.
        e set_e m_e;
        /// Element pressure.
        p set_p m_p;
        /// Element artificial viscosity.
        q set_q m_q;
        /// Linear q term.
        ql set_ql m_ql;
        /// Quadratic q term.
        qq set_qq m_qq;
        /// Element relative volume.
        v set_v m_v;
        /// Element reference volume.
        volo set_volo m_volo;
        /// Relative volume change.
        delv set_delv m_delv;
        /// Volume derivative over volume.
        vdov set_vdov m_vdov;
        /// Characteristic length.
        arealg set_arealg m_arealg;
        /// Sound speed.
        ss set_ss m_ss;
        /// Element mass.
        elem_mass set_elem_mass m_elem_mass;
        /// New relative volume (scratch).
        vnew set_vnew m_vnew;
        /// Principal strain xx (scratch).
        dxx set_dxx m_dxx;
        /// Principal strain yy (scratch).
        dyy set_dyy m_dyy;
        /// Principal strain zz (scratch).
        dzz set_dzz m_dzz;
        /// Velocity gradient ξ (scratch).
        delv_xi set_delv_xi m_delv_xi;
        /// Velocity gradient η (scratch).
        delv_eta set_delv_eta m_delv_eta;
        /// Velocity gradient ζ (scratch).
        delv_zeta set_delv_zeta m_delv_zeta;
        /// Position gradient ξ (scratch).
        delx_xi set_delx_xi m_delx_xi;
        /// Position gradient η (scratch).
        delx_eta set_delx_eta m_delx_eta;
        /// Position gradient ζ (scratch).
        delx_zeta set_delx_zeta m_delx_zeta;
    }
}

impl std::fmt::Debug for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Domain")
            .field("shape", &self.shape)
            .field("num_elem", &self.num_elem)
            .field("num_node", &self.num_node)
            .field("num_reg", &self.regions.num_reg)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_small_domain() {
        let d = Domain::build(4, 3, 1, 1, 0);
        assert_eq!(d.num_elem(), 64);
        assert_eq!(d.num_node(), 125);
        assert_eq!(d.num_reg(), 3);
    }

    #[test]
    fn initial_volumes_match_uniform_hexes() {
        let d = Domain::build(5, 1, 1, 1, 0);
        let h = crate::params::MESH_EXTENT / 5.0;
        let expect = h * h * h;
        for e in 0..d.num_elem() {
            assert!((d.volo(e) - expect).abs() < 1e-12, "elem {e}");
            assert!((d.elem_mass(e) - expect).abs() < 1e-12);
            assert_eq!(d.v(e), 1.0);
        }
    }

    #[test]
    fn total_nodal_mass_equals_total_volume() {
        let d = Domain::build(6, 2, 1, 1, 0);
        let total_nodal: Real = (0..d.num_node()).map(|n| d.nodal_mass(n)).sum();
        let total_vol: Real = (0..d.num_elem()).map(|e| d.volo(e)).sum();
        assert!((total_nodal - total_vol).abs() < 1e-9);
        // The whole mesh is a 1.125³ cube.
        let extent = crate::params::MESH_EXTENT;
        assert!((total_vol - extent * extent * extent).abs() < 1e-9);
    }

    #[test]
    fn energy_only_in_origin_element() {
        let d = Domain::build(45, 11, 1, 1, 0);
        assert!(
            (d.e(0) - EBASE).abs() < 1.0,
            "scale=1 at size 45: e0={}",
            d.e(0)
        );
        for e in 1..100 {
            assert_eq!(d.e(e), 0.0);
        }
    }

    #[test]
    fn energy_scales_with_size_cubed() {
        let d90 = Domain::build(90, 11, 1, 1, 0);
        let expect = EBASE * 8.0; // (90/45)³
        assert!((d90.e(0) - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn initial_dt_matches_reference_formula() {
        let d = Domain::build(45, 11, 1, 1, 0);
        let want = 0.5 * d.volo(0).cbrt() / (2.0 * d.e(0)).sqrt();
        assert_eq!(d.initial_dt(), want);
        // 0.5·0.025 / √(2·3.948746e7) ≈ 1.4e-6 for s = 45.
        assert!(d.initial_dt() > 1e-7 && d.initial_dt() < 1e-5);
    }

    #[test]
    fn node_corner_lists_ascend_on_an_offset_brick_with_comm_faces() {
        // The centre brick of a 3×3×3 grid: every face is COMM and every
        // axis is offset. The force gathers' summation order, and with it
        // bit-identity across drivers, rests on each node listing its
        // corners in strictly ascending `8·elem + corner` order.
        let shape = MeshShape::brick((2, 2, 3), (6, 6, 6), (2, 3, 2));
        assert!(Face::ALL
            .iter()
            .all(|&f| shape.face_boundary(f) == mesh::FaceBoundary::Comm));
        let d = Domain::build_subdomain(shape, 1, 1, 1, 0);
        let start = &d.m_node_elem_start;
        assert_eq!(start.len(), d.num_node() + 1);
        assert_eq!(start[0], 0);
        assert!(start.windows(2).all(|w| w[0] <= w[1]), "start is monotone");
        assert_eq!(start[d.num_node()] as Index, 8 * d.num_elem());
        for n in 0..d.num_node() {
            let list = d.node_elem_corners(n);
            assert!(
                list.windows(2).all(|w| w[0] < w[1]),
                "node {n} corners not ascending: {list:?}"
            );
            for &c in list {
                let (e, corner) = (c as Index / 8, c as Index % 8);
                assert_eq!(d.nodelist(e)[corner] as Index, n);
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds 32-bit mesh indices")]
    fn oversized_build_fails_before_allocating() {
        // 813³ elements would need ~34 GB of nodelist alone; the bound is
        // checked on the extents first.
        Domain::build(crate::mesh::MAX_EDGE + 1, 1, 1, 1, 0);
    }

    #[test]
    fn accessors_roundtrip() {
        let d = Domain::build(2, 1, 1, 1, 0);
        d.set_xd(3, 1.5);
        assert_eq!(d.xd(3), 1.5);
        d.set_e(1, -2.0);
        assert_eq!(d.e(1), -2.0);
    }

    #[test]
    fn collect_nodes_to_elem() {
        let d = Domain::build(3, 1, 1, 1, 0);
        let mut x = [0.0; 8];
        let mut y = [0.0; 8];
        let mut z = [0.0; 8];
        crate::kernels::shape::gather_elem_coords(&d, 0, &mut x, &mut y, &mut z);
        let v = crate::kernels::volume::calc_elem_volume(&x, &y, &z);
        assert!((v - d.volo(0)).abs() < 1e-15);
    }
}
