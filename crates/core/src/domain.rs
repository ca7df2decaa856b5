//! The LULESH `Domain`: all node- and element-centered fields, mesh
//! connectivity, region decomposition, and problem initialization (Sedov
//! blast energy deposit, masses, initial timestep).
//!
//! # Field table
//!
//! Each of the 35 mesh-resident arrays is named once, as a [`Field`], in
//! the `fields!` table below: its variant, its accessor pair (`d.x(i)`,
//! `d.set_x(i, v)`) and its [`FieldSpace`]. Code that walks "every field"
//! (snapshots, halo packs, test digests) iterates [`Field::ALL`] or names a
//! `Field`, instead of listing accessors.
//!
//! All fields are 64-byte-aligned planes of one block, laid out as the
//! step scratch is (`core::slab`). At the paper's sizes that block spans
//! tens of MB, so it is one huge-page mapping ([`SharedVec::zeroed`]):
//! building the domain writes every plane, and those first writes fault
//! once per 2 MiB rather than once per 4 KiB page per array. The two
//! corner-length connectivity lists are blocks of their own, built in
//! place under the same rule.
//!
//! # Sharing model
//!
//! The C++ original passes `Domain&` everywhere and lets OpenMP threads
//! write disjoint indices. We reproduce that model: the field block is a
//! [`SharedVec`] and the getter/setter accessors (`d.x(i)`, `d.set_x(i, v)`)
//! compile to raw-pointer loads/stores. **The safety contract lives at the
//! driver level**: within one parallel phase, no two tasks may touch the
//! same index of the same field with a write involved, and phases are
//! separated by barriers/dependencies. The serial driver trivially satisfies
//! this; the parallel drivers satisfy it structurally (disjoint partitions,
//! disjoint regions, element-owned scratch) and the integration tests verify
//! their results against the serial driver bit-for-bit.

use crate::kernels::volume::calc_elem_volume;
use crate::mesh::{self, Face, MeshShape};
use crate::params::{Params, EBASE};
use crate::regions::Regions;
use crate::slab::{split_mut, Layout, Plane};
use crate::types::{Index, MeshIndex, Real};
use parutil::SharedVec;
use std::ops::Range;

/// The index space a [`Field`] spans: its plane's length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldSpace {
    /// One value per node (`num_node`).
    Node,
    /// One value per element (`num_elem`).
    Elem,
    /// One value per element plus the ghost regions of the COMM faces
    /// ([`MeshShape::grad_len`]), which the halo exchange fills.
    Grad,
}

/// Declares [`Field`] and the `Domain` accessors from one table: each row
/// is a field's doc line, variant, getter, setter and [`FieldSpace`], in
/// plane order.
macro_rules! fields {
    ($(#[$doc:meta] $field:ident $get:ident $set:ident $space:ident;)*) => {
        /// A mesh-resident array of [`Domain`]: one plane of its field block.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Field {
            $(#[$doc] $field,)*
        }

        impl Field {
            /// Every field, in plane order.
            pub const ALL: [Field; Field::COUNT] = [$(Field::$field,)*];
            /// Number of fields.
            pub const COUNT: usize = [$(stringify!($field),)*].len();

            /// The field's name: that of its getter (`"nodal_mass"`).
            pub const fn label(self) -> &'static str {
                match self {
                    $(Field::$field => stringify!($get),)*
                }
            }

            /// The index space the field spans.
            pub const fn space(self) -> FieldSpace {
                match self {
                    $(Field::$field => FieldSpace::$space,)*
                }
            }
        }

        impl Domain {
            $(
                #[$doc]
                #[inline]
                pub fn $get(&self, i: Index) -> Real {
                    self.get(Field::$field, i)
                }
                #[doc = concat!("Setter counterpart of [`Self::", stringify!($get), "`].")]
                #[inline]
                pub fn $set(&self, i: Index, v: Real) {
                    self.set(Field::$field, i, v)
                }
            )*
        }
    };
}

fields! {
    /// Node x-coordinate.
    X x set_x Node;
    /// Node y-coordinate.
    Y y set_y Node;
    /// Node z-coordinate.
    Z z set_z Node;
    /// Node x-velocity.
    Xd xd set_xd Node;
    /// Node y-velocity.
    Yd yd set_yd Node;
    /// Node z-velocity.
    Zd zd set_zd Node;
    /// Node x-acceleration.
    Xdd xdd set_xdd Node;
    /// Node y-acceleration.
    Ydd ydd set_ydd Node;
    /// Node z-acceleration.
    Zdd zdd set_zdd Node;
    /// Nodal x-force.
    Fx fx set_fx Node;
    /// Nodal y-force.
    Fy fy set_fy Node;
    /// Nodal z-force.
    Fz fz set_fz Node;
    /// Nodal mass.
    NodalMass nodal_mass set_nodal_mass Node;
    /// Element internal energy.
    E e set_e Elem;
    /// Element pressure.
    P p set_p Elem;
    /// Element artificial viscosity.
    Q q set_q Elem;
    /// Linear q term.
    Ql ql set_ql Elem;
    /// Quadratic q term.
    Qq qq set_qq Elem;
    /// Element relative volume.
    V v set_v Elem;
    /// Element reference (initial) volume.
    Volo volo set_volo Elem;
    /// Relative volume change this step (`vnew − v`).
    Delv delv set_delv Elem;
    /// Volume derivative over volume.
    Vdov vdov set_vdov Elem;
    /// Element characteristic length.
    Arealg arealg set_arealg Elem;
    /// Sound speed.
    Ss ss set_ss Elem;
    /// Element mass.
    ElemMass elem_mass set_elem_mass Elem;
    /// New relative volume (step scratch in the reference; persistent here).
    Vnew vnew set_vnew Elem;
    /// Principal strain xx (scratch).
    Dxx dxx set_dxx Elem;
    /// Principal strain yy (scratch).
    Dyy dyy set_dyy Elem;
    /// Principal strain zz (scratch).
    Dzz dzz set_dzz Elem;
    /// Monotonic-q velocity gradient ξ (scratch; ghost regions included).
    DelvXi delv_xi set_delv_xi Grad;
    /// Monotonic-q velocity gradient η (scratch; ghost regions included).
    DelvEta delv_eta set_delv_eta Grad;
    /// Monotonic-q velocity gradient ζ (scratch; ghost regions included).
    DelvZeta delv_zeta set_delv_zeta Grad;
    /// Monotonic-q position gradient ξ (scratch).
    DelxXi delx_xi set_delx_xi Elem;
    /// Monotonic-q position gradient η (scratch).
    DelxEta delx_eta set_delx_eta Elem;
    /// Monotonic-q position gradient ζ (scratch).
    DelxZeta delx_zeta set_delx_zeta Elem;
}

/// All mesh-resident state of a LULESH problem.
pub struct Domain {
    // --- problem shape ---
    shape: MeshShape,
    num_elem: Index,
    num_node: Index,

    // --- the fields ---
    /// The block every field is a plane of.
    slab: SharedVec<Real>,
    /// Each field's plane of `slab`, in [`Field::ALL`] order.
    planes: [Plane; Field::COUNT],

    // --- immutable connectivity, stored at `Index_t` width ---
    /// 8 node indices per element; never written after the build.
    nodelist: SharedVec<MeshIndex>,
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
    /// Node→element-corner entries (`8·elem + corner`); never written
    /// after the build.
    node_elem_corner_list: SharedVec<MeshIndex>,

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
        let grad_len = shape.grad_len();

        // Every array is allocated once and written in place, the field
        // block in full (zeros included): each page faults here, by its
        // first write, and never inside the step loop or by a copy.
        let mut layout = Layout::default();
        let planes = Field::ALL.map(|f| {
            layout.plane(match f.space() {
                FieldSpace::Node => num_node,
                FieldSpace::Elem => num_elem,
                FieldSpace::Grad => grad_len,
            })
        });
        let mut slab = layout.block();
        slab.fill(0.0);
        use Field::{ElemMass, NodalMass, Volo, E, V, X, Y, Z};
        let written = [X, Y, Z, NodalMass, E, V, Volo, ElemMass];
        let [x, y, z, nodal_mass, e, v, volo, elem_mass] =
            split_mut(slab.as_mut_slice(), written.map(|f| planes[f as usize]));
        v.fill(1.0);
        mesh::fill_coordinates(shape, x, y, z);

        let mut nodelist = SharedVec::zeroed(8 * num_elem);
        mesh::fill_nodelist(shape, nodelist.as_mut_slice());
        let mut node_elem_corner_list = SharedVec::zeroed(8 * num_elem);
        let nl: &[MeshIndex] = nodelist.as_mut_slice();
        let node_elem_start =
            mesh::fill_node_elem_corners(nl, num_node, node_elem_corner_list.as_mut_slice());
        let (lxim, lxip, letam, letap, lzetam, lzetap) = mesh::build_connectivity(shape);
        let elem_bc = mesh::build_boundary_conditions(shape);
        let (symm_x, symm_y, symm_z) = mesh::build_symmetry_planes(shape);
        let regions = Regions::create(num_elem, num_reg, balance, cost, seed);

        // Initialize volumes and masses from the initial geometry. For
        // subdomains, boundary-plane nodal masses are completed by the
        // halo exchange in `multidom`.
        let mut xl = [0.0; 8];
        let mut yl = [0.0; 8];
        let mut zl = [0.0; 8];
        for el in 0..num_elem {
            let nl = &nl[8 * el..8 * el + 8];
            for c in 0..8 {
                let n = nl[c] as Index;
                xl[c] = x[n];
                yl[c] = y[n];
                zl[c] = z[n];
            }
            let volume = calc_elem_volume(&xl, &yl, &zl);
            volo[el] = volume;
            elem_mass[el] = volume;
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
        if shape.x_offset == 0 && shape.y_offset == 0 && shape.z_offset == 0 {
            e[0] = einit;
        }
        let initial_dt = 0.5 * volo[0].cbrt() / (2.0 * einit).sqrt();

        Self {
            shape,
            num_elem,
            num_node,
            slab,
            planes,
            nodelist,
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
            node_elem_corner_list,
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
        // SAFETY: the list is written only by the build.
        let list = unsafe { self.nodelist.as_slice() };
        &list[8 * e..8 * e + 8]
    }

    /// Element-corner entries of node `n` (each is `8·elem + corner`), in
    /// ascending order.
    #[inline]
    pub fn node_elem_corners(&self, n: Index) -> &[MeshIndex] {
        let start = &self.m_node_elem_start;
        // SAFETY: the list is written only by the build.
        let list = unsafe { self.node_elem_corner_list.as_slice() };
        &list[start[n] as Index..start[n + 1] as Index]
    }

    /// Length of `f`'s plane: `num_node`, `num_elem` or the gradient
    /// length, by its [`FieldSpace`].
    #[inline]
    pub fn field_len(&self, f: Field) -> Index {
        self.planes[f as usize].len
    }

    /// Position of value `i` of `f` in the field block.
    #[inline]
    fn at(&self, f: Field, i: Index) -> usize {
        let p = self.planes[f as usize];
        debug_assert!(i < p.len, "{} index {i} past {}", f.label(), p.len);
        p.off + i
    }

    /// Value `i` of field `f` (what `d.x(i)` reads for [`Field::X`]).
    #[inline]
    pub fn get(&self, f: Field, i: Index) -> Real {
        // SAFETY: phase-disjoint access contract (see type docs).
        unsafe { self.slab.load(self.at(f, i)) }
    }

    /// Set value `i` of field `f`.
    #[inline]
    pub fn set(&self, f: Field, i: Index, v: Real) {
        // SAFETY: phase-disjoint access contract (see type docs).
        unsafe { self.slab.write(self.at(f, i), v) }
    }

    /// Field `f`'s values at positions `r`, for reading.
    ///
    /// # Safety
    /// No thread may write any of them while the slice lives.
    #[inline]
    pub(crate) unsafe fn values(&self, f: Field, r: Range<Index>) -> &[Real] {
        let p = self.planes[f as usize];
        assert!(r.start <= r.end && r.end <= p.len, "outside the field");
        self.slab.slice(p.off + r.start, p.off + r.end)
    }

    /// Field `f`'s values at positions `r`, for writing.
    ///
    /// # Safety
    /// No other thread may access any of them while the slice lives.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn values_mut(&self, f: Field, r: Range<Index>) -> &mut [Real] {
        let p = self.planes[f as usize];
        assert!(r.start <= r.end && r.end <= p.len, "outside the field");
        self.slab.slice_mut(p.off + r.start, p.off + r.end)
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
    fn field_planes_are_disjoint_aligned_and_sized_by_space() {
        // A cube, and an uneven interior brick of a 7³ mesh: every face is
        // COMM, so the gradient planes are longer than the element ones.
        let brick = MeshShape::brick((2, 3, 5), (7, 7, 7), (1, 2, 1));
        assert!(brick.grad_len() > brick.num_elem());
        for d in [
            Domain::build(4, 1, 1, 1, 0),
            Domain::build_subdomain(brick, 2, 1, 1, 0),
        ] {
            let block = d.slab.as_ptr() as usize..d.slab.as_ptr() as usize + 8 * d.slab.len();
            let mut spans = Field::ALL.map(|f| {
                let len = match f.space() {
                    FieldSpace::Node => d.num_node(),
                    FieldSpace::Elem => d.num_elem(),
                    FieldSpace::Grad => d.shape().grad_len(),
                };
                assert_eq!(d.field_len(f), len, "{}", f.label());
                // SAFETY: no other access to the domain is in flight.
                let plane = unsafe { d.values(f, 0..len) };
                let at = plane.as_ptr() as usize;
                assert!(at.is_multiple_of(parutil::CACHE_LINE), "{}", f.label());
                assert!(
                    block.start <= at && at + 8 * len <= block.end,
                    "{}",
                    f.label()
                );
                (at, at + 8 * len, f)
            });
            spans.sort_by_key(|s| s.0);
            for w in spans.windows(2) {
                assert!(
                    w[0].1 <= w[1].0,
                    "{} overlaps {}",
                    w[0].2.label(),
                    w[1].2.label()
                );
            }
        }
    }

    #[test]
    fn fields_are_named_once() {
        let labels: std::collections::BTreeSet<_> = Field::ALL.map(Field::label).into();
        assert_eq!(labels.len(), Field::COUNT);
        assert_eq!(Field::COUNT, 35);
        let d = Domain::build(2, 1, 1, 1, 0);
        for (k, f) in Field::ALL.into_iter().enumerate() {
            d.set(f, 1, k as Real);
        }
        assert_eq!((d.x(1), d.nodal_mass(1), d.e(1)), (0.0, 12.0, 13.0));
        assert_eq!((d.delv_xi(1), d.delx_zeta(1)), (29.0, 34.0));
    }

    #[test]
    #[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
    fn an_s45_build_faults_once_per_huge_page() {
        use crate::slab::faults::{minor_faults, thp_off};
        if thp_off() {
            eprintln!("skip: transparent huge pages are off on this host");
            return;
        }
        // 35 fields of ~0.75 MB on 4 KiB pages alone are ~6.4k faults.
        let before = minor_faults();
        let d = Domain::build(45, 11, 1, 1, 0);
        let faults = minor_faults() - before;
        drop(d);
        assert!(
            faults < 3000,
            "{faults} minor faults building an s45 domain"
        );
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
