//! Regular hexahedral mesh construction: node coordinates, element→node
//! connectivity, element face neighbours, boundary-condition flags,
//! symmetry-plane node lists, and the node→element corner lists used for
//! race-free force gathering.
//!
//! Faithful port of `Domain::BuildMesh`, `SetupElementConnectivities`,
//! `SetupBoundaryConditions`, `SetupSymmetryPlanes` and
//! `AllocateNodeElemIndexes` from LULESH 2.0, generalized to rectangular
//! `nx × ny × nz` sub-bricks at an arbitrary position inside the global
//! cube so the multi-domain extension (the paper's future work, implemented
//! in the `multidom` crate) can decompose over a 3-D rank grid. A single
//! cubic domain is the offset-0, local-extent-equals-global special case
//! and is bit-identical to the original builder.

// Indexed loops intentionally mirror the reference's `SetupElementConnectivities` flat-index arithmetic.
#![allow(clippy::needless_range_loop)]
use crate::params::MESH_EXTENT;
use crate::types::{bc, Index, MeshIndex, Real};

/// Largest cube edge (`--s`) whose connectivity fits [`MeshIndex`]: the
/// node→corner offsets run up to `8·num_elem`, and `8·812³ ≤ u32::MAX <
/// 8·813³`.
pub const MAX_EDGE: Index = 812;

/// What sits on one face of a (sub)domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaceBoundary {
    /// A global symmetry plane (the min face of the whole problem).
    Symm,
    /// A global free surface (the max face of the whole problem).
    Free,
    /// An internal boundary to a neighbouring subdomain (halo exchange).
    Comm,
}

/// The six faces of a sub-brick, in the fixed order used for ghost-plane
/// layout: ξ−, ξ+, η−, η+, ζ−, ζ+.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Face {
    /// ξ− (x = min).
    Xm = 0,
    /// ξ+ (x = max).
    Xp = 1,
    /// η− (y = min).
    Ym = 2,
    /// η+ (y = max).
    Yp = 3,
    /// ζ− (z = min).
    Zm = 4,
    /// ζ+ (z = max).
    Zp = 5,
}

impl Face {
    /// All faces in ghost-layout order.
    pub const ALL: [Face; 6] = [Face::Xm, Face::Xp, Face::Ym, Face::Yp, Face::Zm, Face::Zp];

    /// Axis of the face normal: 0 = ξ, 1 = η, 2 = ζ.
    #[inline]
    pub fn axis(self) -> usize {
        (self as usize) / 2
    }

    /// `true` for the max (+) face of its axis.
    #[inline]
    pub fn is_plus(self) -> bool {
        (self as usize) % 2 == 1
    }

    /// The face on the opposite side of the same axis.
    #[inline]
    pub fn opposite(self) -> Face {
        Face::ALL[(self as usize) ^ 1]
    }
}

/// Shape of one (sub)domain: local element extents, the global extents,
/// and the position of this sub-brick within the global mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshShape {
    /// Elements along ξ (x), local to this subdomain.
    pub nx: Index,
    /// Elements along η (y), local to this subdomain.
    pub ny: Index,
    /// Elements along ζ (z), local to this subdomain.
    pub nz: Index,
    /// Global ξ extent in elements.
    pub global_nx: Index,
    /// Global η extent in elements.
    pub global_ny: Index,
    /// Global ζ extent in elements.
    pub global_nz: Index,
    /// Elements left of this subdomain's first ξ column.
    pub x_offset: Index,
    /// Elements in front of this subdomain's first η row.
    pub y_offset: Index,
    /// Elements below this subdomain's first ζ plane.
    pub z_offset: Index,
}

impl MeshShape {
    /// A single cubic domain of edge `size`.
    pub fn cube(size: Index) -> Self {
        Self::brick((size, size, size), (size, size, size), (0, 0, 0))
    }

    /// A rectangular sub-brick: `local` extents at `offset` within the
    /// `global` mesh.
    pub fn brick(
        local: (Index, Index, Index),
        global: (Index, Index, Index),
        offset: (Index, Index, Index),
    ) -> Self {
        Self {
            nx: local.0,
            ny: local.1,
            nz: local.2,
            global_nx: global.0,
            global_ny: global.1,
            global_nz: global.2,
            x_offset: offset.0,
            y_offset: offset.1,
            z_offset: offset.2,
        }
    }

    /// Local element count.
    pub fn num_elem(&self) -> Index {
        self.nx * self.ny * self.nz
    }

    /// Local node count.
    pub fn num_node(&self) -> Index {
        (self.nx + 1) * (self.ny + 1) * (self.nz + 1)
    }

    /// Elements in one ζ plane.
    pub fn elems_per_plane(&self) -> Index {
        self.nx * self.ny
    }

    /// Nodes in one ζ plane.
    pub fn nodes_per_plane(&self) -> Index {
        (self.nx + 1) * (self.ny + 1)
    }

    /// `true` if every stored index of this brick fits [`MeshIndex`]: the
    /// largest is the node→corner end offset `8·num_elem` (node ids, face
    /// neighbours and ghost slots are all smaller). Computed from the
    /// extents alone, so an oversized shape is rejected before any
    /// allocation.
    pub fn fits_mesh_index(&self) -> bool {
        [self.nx, self.ny, self.nz, 8]
            .into_iter()
            .try_fold(1, Index::checked_mul)
            .is_some_and(|n| n <= MeshIndex::MAX as Index)
    }

    /// Offset along a face's axis (0 = ξ, 1 = η, 2 = ζ).
    fn axis_offset(&self, axis: usize) -> Index {
        [self.x_offset, self.y_offset, self.z_offset][axis]
    }

    /// Local extent along an axis.
    fn axis_extent(&self, axis: usize) -> Index {
        [self.nx, self.ny, self.nz][axis]
    }

    /// Global extent along an axis.
    fn axis_global(&self, axis: usize) -> Index {
        [self.global_nx, self.global_ny, self.global_nz][axis]
    }

    /// The boundary kind on one face, implied by the brick position: the
    /// global min face is the symmetry plane, the global max face the free
    /// surface, everything else an internal COMM boundary.
    pub fn face_boundary(&self, face: Face) -> FaceBoundary {
        let axis = face.axis();
        if face.is_plus() {
            if self.axis_offset(axis) + self.axis_extent(axis) == self.axis_global(axis) {
                FaceBoundary::Free
            } else {
                FaceBoundary::Comm
            }
        } else if self.axis_offset(axis) == 0 {
            FaceBoundary::Symm
        } else {
            FaceBoundary::Comm
        }
    }

    /// Number of elements on one face of the brick.
    pub fn face_elem_count(&self, face: Face) -> Index {
        match face.axis() {
            0 => self.ny * self.nz,
            1 => self.nx * self.nz,
            _ => self.nx * self.ny,
        }
    }

    /// Local element indices on a face, in the canonical exchange order
    /// (ascending ζ plane, then η row, then ξ column). Matching faces of
    /// neighbouring sub-bricks enumerate geometrically-coincident elements
    /// at the same position because grid neighbours share their tangential
    /// extents.
    pub fn face_elems(&self, face: Face) -> Vec<Index> {
        let pp = self.elems_per_plane();
        let mut out = Vec::with_capacity(self.face_elem_count(face));
        match face {
            Face::Xm | Face::Xp => {
                let col = if face.is_plus() { self.nx - 1 } else { 0 };
                for p in 0..self.nz {
                    for r in 0..self.ny {
                        out.push(p * pp + r * self.nx + col);
                    }
                }
            }
            Face::Ym | Face::Yp => {
                let row = if face.is_plus() { self.ny - 1 } else { 0 };
                for p in 0..self.nz {
                    for c in 0..self.nx {
                        out.push(p * pp + row * self.nx + c);
                    }
                }
            }
            Face::Zm | Face::Zp => {
                let plane = if face.is_plus() { self.nz - 1 } else { 0 };
                for r in 0..self.ny {
                    for c in 0..self.nx {
                        out.push(plane * pp + r * self.nx + c);
                    }
                }
            }
        }
        out
    }

    /// Base index of the ghost-element region for a COMM face in the
    /// gradient arrays (`delv_xi/eta/zeta`). Ghost regions are laid out
    /// after the `num_elem` real elements, in `Face::ALL` order, with slots
    /// allocated only for COMM faces.
    pub fn ghost_base(&self, face: Face) -> Option<Index> {
        if self.face_boundary(face) != FaceBoundary::Comm {
            return None;
        }
        let mut base = self.num_elem();
        for f in Face::ALL {
            if f == face {
                return Some(base);
            }
            if self.face_boundary(f) == FaceBoundary::Comm {
                base += self.face_elem_count(f);
            }
        }
        unreachable!("face not in Face::ALL");
    }

    /// Length of the gradient arrays: real elements plus one ghost region
    /// per COMM face.
    pub fn grad_len(&self) -> Index {
        self.num_elem()
            + Face::ALL
                .iter()
                .filter(|&&f| self.face_boundary(f) == FaceBoundary::Comm)
                .map(|&f| self.face_elem_count(f))
                .sum::<Index>()
    }
}

/// Write the node coordinates of the `(nx+1)(ny+1)(nz+1)` lattice into
/// `x`, `y` and `z` (each `num_node` long). The global mesh spans
/// `[0, 1.125]` per dimension; coordinates account for the brick offset on
/// every axis.
pub fn fill_coordinates(shape: MeshShape, x: &mut [Real], y: &mut [Real], z: &mut [Real]) {
    let num_node = shape.num_node();
    assert!(x.len() == num_node && y.len() == num_node && z.len() == num_node);

    let mut nidx = 0;
    for plane in 0..=shape.nz {
        let tz = MESH_EXTENT * (shape.z_offset + plane) as Real / shape.global_nz as Real;
        for row in 0..=shape.ny {
            let ty = MESH_EXTENT * (shape.y_offset + row) as Real / shape.global_ny as Real;
            for col in 0..=shape.nx {
                let tx = MESH_EXTENT * (shape.x_offset + col) as Real / shape.global_nx as Real;
                x[nidx] = tx;
                y[nidx] = ty;
                z[nidx] = tz;
                nidx += 1;
            }
        }
    }
}

/// Narrow a computed index to its stored width. Every `build_*` or `fill_*` function
/// that calls this asserts [`MeshShape::fits_mesh_index`] first, so no
/// value is truncated.
#[inline]
fn stored(i: Index) -> MeshIndex {
    debug_assert!(i <= MeshIndex::MAX as Index);
    i as MeshIndex
}

/// Panic unless `shape`'s indices fit [`MeshIndex`]; checks the extents
/// only, so it runs before anything is allocated.
pub(crate) fn assert_fits(shape: MeshShape) {
    assert!(
        shape.fits_mesh_index(),
        "a {}x{}x{} brick exceeds 32-bit mesh indices (8·elements must be at most \
         u32::MAX: a cube edge of at most {MAX_EDGE})",
        shape.nx,
        shape.ny,
        shape.nz
    );
}

/// Write the element→node connectivity into `nodelist` (`8·num_elem`
/// long): 8 node indices per element, LULESH corner order (bottom face
/// counter-clockwise, then top face).
pub fn fill_nodelist(shape: MeshShape, nodelist: &mut [MeshIndex]) {
    assert_fits(shape);
    assert_eq!(nodelist.len(), 8 * shape.num_elem());
    let rn = shape.nx + 1; // node row stride
    let pn = shape.nodes_per_plane(); // node plane stride

    let mut zidx = 0;
    for plane in 0..shape.nz {
        for row in 0..shape.ny {
            for col in 0..shape.nx {
                let nidx = plane * pn + row * rn + col;
                let nl = &mut nodelist[8 * zidx..8 * zidx + 8];
                nl[0] = stored(nidx);
                nl[1] = stored(nidx + 1);
                nl[2] = stored(nidx + rn + 1);
                nl[3] = stored(nidx + rn);
                nl[4] = stored(nidx + pn);
                nl[5] = stored(nidx + pn + 1);
                nl[6] = stored(nidx + pn + rn + 1);
                nl[7] = stored(nidx + pn + rn);
                zidx += 1;
            }
        }
    }
}

/// Face-neighbour element indices in the six logical directions
/// (`lxim`, `lxip`, `letam`, `letap`, `lzetam`, `lzetap`).
///
/// The reference computes these with flat index arithmetic that wraps
/// across row/plane boundaries on domain edges; the wrapped values are
/// never read because the corresponding `elemBC` face flag is SYMM or
/// FREE. We keep the identical arithmetic for fidelity. On COMM faces the
/// neighbour indices point *past* `num_elem` into the per-face ghost
/// regions (see [`MeshShape::ghost_base`]), in the canonical face order of
/// [`MeshShape::face_elems`].
#[allow(clippy::type_complexity)]
pub fn build_connectivity(
    shape: MeshShape,
) -> (
    Vec<MeshIndex>,
    Vec<MeshIndex>,
    Vec<MeshIndex>,
    Vec<MeshIndex>,
    Vec<MeshIndex>,
    Vec<MeshIndex>,
) {
    assert_fits(shape);
    let num_elem = shape.num_elem();
    let nx = shape.nx;
    let plane = shape.elems_per_plane();
    let mut lxim = vec![0; num_elem];
    let mut lxip = vec![0; num_elem];
    let mut letam = vec![0; num_elem];
    let mut letap = vec![0; num_elem];
    let mut lzetam = vec![0; num_elem];
    let mut lzetap = vec![0; num_elem];

    lxim[0] = 0;
    for i in 1..num_elem {
        lxim[i] = stored(i - 1);
        lxip[i - 1] = stored(i);
    }
    lxip[num_elem - 1] = stored(num_elem - 1);

    for i in 0..nx {
        letam[i] = stored(i);
        letap[num_elem - nx + i] = stored(num_elem - nx + i);
    }
    for i in nx..num_elem {
        letam[i] = stored(i - nx);
        letap[i - nx] = stored(i);
    }

    for i in 0..plane {
        lzetam[i] = stored(i);
        lzetap[num_elem - plane + i] = stored(num_elem - plane + i);
    }
    for i in plane..num_elem {
        lzetam[i] = stored(i - plane);
        lzetap[i - plane] = stored(i);
    }

    // Redirect COMM faces into their ghost regions.
    for face in Face::ALL {
        let Some(base) = shape.ghost_base(face) else {
            continue;
        };
        let target: &mut Vec<MeshIndex> = match face {
            Face::Xm => &mut lxim,
            Face::Xp => &mut lxip,
            Face::Ym => &mut letam,
            Face::Yp => &mut letap,
            Face::Zm => &mut lzetam,
            Face::Zp => &mut lzetap,
        };
        for (k, e) in shape.face_elems(face).into_iter().enumerate() {
            target[e] = stored(base + k);
        }
    }

    (lxim, lxip, letam, letap, lzetam, lzetap)
}

/// Boundary-condition flags per element: symmetry on the global min faces,
/// free surface on the global max faces, COMM on internal subdomain faces.
pub fn build_boundary_conditions(shape: MeshShape) -> Vec<i32> {
    let num_elem = shape.num_elem();
    let mut elem_bc = vec![0i32; num_elem];

    for face in Face::ALL {
        let flag = match (face, shape.face_boundary(face)) {
            (Face::Xm, FaceBoundary::Symm) => bc::XI_M_SYMM,
            (Face::Xm, FaceBoundary::Free) => bc::XI_M_FREE,
            (Face::Xm, FaceBoundary::Comm) => bc::XI_M_COMM,
            (Face::Xp, FaceBoundary::Symm) => bc::XI_P_SYMM,
            (Face::Xp, FaceBoundary::Free) => bc::XI_P_FREE,
            (Face::Xp, FaceBoundary::Comm) => bc::XI_P_COMM,
            (Face::Ym, FaceBoundary::Symm) => bc::ETA_M_SYMM,
            (Face::Ym, FaceBoundary::Free) => bc::ETA_M_FREE,
            (Face::Ym, FaceBoundary::Comm) => bc::ETA_M_COMM,
            (Face::Yp, FaceBoundary::Symm) => bc::ETA_P_SYMM,
            (Face::Yp, FaceBoundary::Free) => bc::ETA_P_FREE,
            (Face::Yp, FaceBoundary::Comm) => bc::ETA_P_COMM,
            (Face::Zm, FaceBoundary::Symm) => bc::ZETA_M_SYMM,
            (Face::Zm, FaceBoundary::Free) => bc::ZETA_M_FREE,
            (Face::Zm, FaceBoundary::Comm) => bc::ZETA_M_COMM,
            (Face::Zp, FaceBoundary::Symm) => bc::ZETA_P_SYMM,
            (Face::Zp, FaceBoundary::Free) => bc::ZETA_P_FREE,
            (Face::Zp, FaceBoundary::Comm) => bc::ZETA_P_COMM,
        };
        for e in shape.face_elems(face) {
            elem_bc[e] |= flag;
        }
    }
    elem_bc
}

/// Node index lists of the symmetry planes: each axis contributes its min
/// face's nodes when this sub-brick touches the corresponding global min
/// plane (x = 0, y = 0, z = 0). Lists are empty for interior/upper bricks.
pub fn build_symmetry_planes(shape: MeshShape) -> (Vec<MeshIndex>, Vec<MeshIndex>, Vec<MeshIndex>) {
    assert_fits(shape);
    let rn = shape.nx + 1;
    let pn = shape.nodes_per_plane();
    let mut symm_x = Vec::new();
    let mut symm_y = Vec::new();
    let mut symm_z = Vec::new();

    if shape.x_offset == 0 {
        symm_x.reserve((shape.ny + 1) * (shape.nz + 1));
        for plane in 0..=shape.nz {
            for row in 0..=shape.ny {
                symm_x.push(stored(plane * pn + row * rn));
            }
        }
    }
    if shape.y_offset == 0 {
        symm_y.reserve((shape.nx + 1) * (shape.nz + 1));
        for plane in 0..=shape.nz {
            for col in 0..=shape.nx {
                symm_y.push(stored(plane * pn + col));
            }
        }
    }
    if shape.z_offset == 0 {
        symm_z.reserve(pn);
        for row in 0..=shape.ny {
            for col in 0..=shape.nx {
                symm_z.push(stored(row * rn + col));
            }
        }
    }
    (symm_x, symm_y, symm_z)
}

/// Node→element corner lists, written into `corner_list` (as long as
/// `nodelist`); returns `start`. For node `n`, the entries
/// `corner_list[start[n]..start[n+1]]` are `8·elem + corner` for every
/// element corner coincident with `n`, in strictly ascending order. Force
/// gathering iterates these in that order, which fixes the floating-point
/// summation order across serial and parallel drivers.
pub fn fill_node_elem_corners(
    nodelist: &[MeshIndex],
    num_node: Index,
    corner_list: &mut [MeshIndex],
) -> Vec<MeshIndex> {
    let corners = nodelist.len();
    assert!(
        corners <= MeshIndex::MAX as Index,
        "corner ids exceed MeshIndex"
    );
    assert_eq!(corner_list.len(), corners);
    // Count node n's corners into start[n + 1], then turn the counts into
    // each node's first slot, still one entry to the right. Filling then
    // advances start[n + 1] as node n's cursor, leaving it at node n's end,
    // which is node n + 1's start: no count or cursor array besides start.
    let mut start: Vec<MeshIndex> = vec![0; num_node + 1];
    for &n in nodelist {
        start[n as Index + 1] += 1;
    }
    let mut first = 0;
    for s in &mut start[1..] {
        (*s, first) = (first, first + *s);
    }
    for (corner, &n) in nodelist.iter().enumerate() {
        let cursor = &mut start[n as Index + 1];
        corner_list[*cursor as Index] = stored(corner);
        *cursor += 1;
    }
    start
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::bc;

    const N: Index = 4;

    fn cube() -> MeshShape {
        MeshShape::cube(N)
    }

    fn coords(shape: MeshShape) -> (Vec<Real>, Vec<Real>, Vec<Real>) {
        let n = shape.num_node();
        let (mut x, mut y, mut z) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        fill_coordinates(shape, &mut x, &mut y, &mut z);
        (x, y, z)
    }

    fn build_nodelist(shape: MeshShape) -> Vec<MeshIndex> {
        let mut nl = vec![0; 8 * shape.num_elem()];
        fill_nodelist(shape, &mut nl);
        nl
    }

    /// Widen a stored list for comparison with `Index` arithmetic.
    fn wide(v: &[MeshIndex]) -> Vec<Index> {
        v.iter().map(|&i| i as Index).collect()
    }

    #[test]
    fn coordinates_span_extent() {
        let (x, y, z) = coords(cube());
        let en = N + 1;
        assert_eq!(x.len(), en * en * en);
        assert_eq!(x[0], 0.0);
        assert_eq!(y[0], 0.0);
        assert_eq!(z[0], 0.0);
        let last = en * en * en - 1;
        assert!((x[last] - MESH_EXTENT).abs() < 1e-15);
        assert!((y[last] - MESH_EXTENT).abs() < 1e-15);
        assert!((z[last] - MESH_EXTENT).abs() < 1e-15);
    }

    #[test]
    fn subdomain_coordinates_are_offset_slabs() {
        // Global 4³ cube split into two 4×4×2 slabs.
        let lower = MeshShape::brick((N, N, 2), (N, N, N), (0, 0, 0));
        let upper = MeshShape::brick((N, N, 2), (N, N, N), (0, 0, 2));
        let (_, _, zl) = coords(lower);
        let (_, _, zu) = coords(upper);
        // The lower slab's top plane coincides with the upper's bottom.
        let pn = lower.nodes_per_plane();
        assert_eq!(&zl[2 * pn..3 * pn], &zu[0..pn]);
        assert!((zu.last().unwrap() - MESH_EXTENT).abs() < 1e-15);
        assert!((zl[2 * pn] - MESH_EXTENT / 2.0).abs() < 1e-15);
    }

    #[test]
    fn x_subdomain_coordinates_are_offset_columns() {
        // Global 4³ cube split into two 2×4×4 bricks along ξ.
        let left = MeshShape::brick((2, N, N), (N, N, N), (0, 0, 0));
        let right = MeshShape::brick((2, N, N), (N, N, N), (2, 0, 0));
        let (xl, _, _) = coords(left);
        let (xr, _, _) = coords(right);
        // The left brick's right column coincides with the right's left.
        assert_eq!(xl[2], xr[0]);
        assert!((xl[2] - MESH_EXTENT / 2.0).abs() < 1e-15);
        assert!((xr[2] - MESH_EXTENT).abs() < 1e-15);
    }

    #[test]
    fn nodelist_first_element() {
        let nl = wide(&build_nodelist(cube()));
        let en = N + 1;
        assert_eq!(
            &nl[0..8],
            &[
                0,
                1,
                en + 1,
                en,
                en * en,
                en * en + 1,
                en * en + en + 1,
                en * en + en
            ]
        );
    }

    #[test]
    fn nodelist_corners_are_distinct() {
        let nl = build_nodelist(MeshShape::brick((3, 4, 2), (3, 4, 2), (0, 0, 0)));
        for e in 0..3 * 4 * 2 {
            let mut c: Vec<_> = nl[8 * e..8 * e + 8].to_vec();
            c.sort_unstable();
            c.dedup();
            assert_eq!(c.len(), 8, "element {e} has repeated corners");
        }
    }

    #[test]
    fn interior_neighbours_are_adjacent() {
        let (lxim, lxip, letam, letap, lzetam, lzetap) = build_connectivity(cube());
        let [lxim, lxip, letam, letap, lzetam, lzetap] =
            [lxim, lxip, letam, letap, lzetam, lzetap].map(|l| wide(&l));
        let e = N * N + N + 1;
        assert_eq!(lxim[e], e - 1);
        assert_eq!(lxip[e], e + 1);
        assert_eq!(letam[e], e - N);
        assert_eq!(letap[e], e + N);
        assert_eq!(lzetam[e], e - N * N);
        assert_eq!(lzetap[e], e + N * N);
    }

    #[test]
    fn comm_faces_point_into_ghost_planes() {
        let shape = MeshShape::brick((N, N, 2), (N, N, N), (0, 0, 2));
        let (_, _, _, _, lzetam, lzetap) = build_connectivity(shape);
        let (lzetam, lzetap) = (wide(&lzetam), wide(&lzetap));
        let ne = shape.num_elem();
        let plane = shape.elems_per_plane();
        // ζ− is COMM (interior): bottom plane points at ghosts [ne, ne+plane).
        for i in 0..plane {
            assert_eq!(lzetam[i], ne + i);
        }
        // ζ+ is FREE (top of global mesh): self-referencing sentinel.
        for i in 0..plane {
            assert_eq!(lzetap[ne - plane + i], ne - plane + i);
        }
    }

    #[test]
    fn xi_comm_faces_point_into_ghost_regions() {
        // Right half of a ξ split: ξ− is COMM, everything else global.
        let shape = MeshShape::brick((2, N, N), (N, N, N), (2, 0, 0));
        let (lxim, lxip, ..) = build_connectivity(shape);
        let (lxim, lxip) = (wide(&lxim), wide(&lxip));
        let base = shape.ghost_base(Face::Xm).expect("ξ− is COMM");
        assert_eq!(base, shape.num_elem());
        for (k, e) in shape.face_elems(Face::Xm).into_iter().enumerate() {
            assert_eq!(lxim[e], base + k);
        }
        // ξ+ is FREE: no ghost region, wrapped neighbour values are gated
        // by the XI_P_FREE flag and never read.
        assert_eq!(shape.ghost_base(Face::Xp), None);
        for e in shape.face_elems(Face::Xp) {
            assert!(lxip[e] < shape.num_elem());
        }
        assert_eq!(shape.grad_len(), shape.num_elem() + N * N);
    }

    #[test]
    fn ghost_bases_are_cumulative_in_face_order() {
        // Center brick of a 3×3×3 grid: every face is COMM.
        let shape = MeshShape::brick((2, 2, 2), (6, 6, 6), (2, 2, 2));
        let ne = shape.num_elem();
        let mut expect = ne;
        for face in Face::ALL {
            assert_eq!(shape.face_boundary(face), FaceBoundary::Comm);
            assert_eq!(shape.ghost_base(face), Some(expect));
            expect += shape.face_elem_count(face);
        }
        assert_eq!(shape.grad_len(), expect);
    }

    #[test]
    fn face_elems_orders_match_between_neighbours() {
        // Two 2×4×4 bricks sharing a ξ face enumerate the shared elements
        // in the same (ζ, η) order.
        let left = MeshShape::brick((2, N, N), (N, N, N), (0, 0, 0));
        let right = MeshShape::brick((2, N, N), (N, N, N), (2, 0, 0));
        let lf = left.face_elems(Face::Xp);
        let rf = right.face_elems(Face::Xm);
        assert_eq!(lf.len(), rf.len());
        let coord = |s: &MeshShape, e: Index| -> (Index, Index) {
            let pp = s.elems_per_plane();
            ((e / pp), (e % pp) / s.nx)
        };
        for (le, re) in lf.iter().zip(&rf) {
            assert_eq!(coord(&left, *le), coord(&right, *re));
        }
    }

    #[test]
    fn boundary_flags_on_faces() {
        let elem_bc = build_boundary_conditions(cube());
        assert_eq!(
            elem_bc[0] & (bc::XI_M_SYMM | bc::ETA_M_SYMM | bc::ZETA_M_SYMM),
            bc::XI_M_SYMM | bc::ETA_M_SYMM | bc::ZETA_M_SYMM
        );
        let far = N * N * N - 1;
        assert_eq!(
            elem_bc[far] & (bc::XI_P_FREE | bc::ETA_P_FREE | bc::ZETA_P_FREE),
            bc::XI_P_FREE | bc::ETA_P_FREE | bc::ZETA_P_FREE
        );
        let e = N * N + N + 1;
        assert_eq!(elem_bc[e], 0);
    }

    #[test]
    fn comm_flags_on_internal_subdomain_faces() {
        let mid = MeshShape::brick((N, N, 1), (N, N, 3), (0, 0, 1));
        let elem_bc = build_boundary_conditions(mid);
        let plane = mid.elems_per_plane();
        for i in 0..plane {
            assert_ne!(
                elem_bc[i] & bc::ZETA_M_COMM,
                0,
                "elem {i} ζ− should be COMM"
            );
            assert_ne!(
                elem_bc[i] & bc::ZETA_P_COMM,
                0,
                "elem {i} ζ+ should be COMM"
            );
        }
    }

    #[test]
    fn comm_flags_on_xi_eta_subdomain_faces() {
        // Center brick of a 3×3 ξη grid: all four lateral faces COMM.
        let mid = MeshShape::brick((2, 2, 6), (6, 6, 6), (2, 2, 0));
        let elem_bc = build_boundary_conditions(mid);
        for e in mid.face_elems(Face::Xm) {
            assert_ne!(elem_bc[e] & bc::XI_M_COMM, 0);
        }
        for e in mid.face_elems(Face::Xp) {
            assert_ne!(elem_bc[e] & bc::XI_P_COMM, 0);
        }
        for e in mid.face_elems(Face::Ym) {
            assert_ne!(elem_bc[e] & bc::ETA_M_COMM, 0);
        }
        for e in mid.face_elems(Face::Yp) {
            assert_ne!(elem_bc[e] & bc::ETA_P_COMM, 0);
        }
    }

    #[test]
    fn every_boundary_direction_count() {
        let elem_bc = build_boundary_conditions(cube());
        let per_face = N * N;
        for (mask, expect) in [
            (bc::XI_M_SYMM, per_face),
            (bc::XI_P_FREE, per_face),
            (bc::ETA_M_SYMM, per_face),
            (bc::ETA_P_FREE, per_face),
            (bc::ZETA_M_SYMM, per_face),
            (bc::ZETA_P_FREE, per_face),
        ] {
            let got = elem_bc.iter().filter(|&&b| b & mask != 0).count();
            assert_eq!(got, expect, "mask {mask:#x}");
        }
    }

    #[test]
    fn symmetry_planes_have_zero_coordinate() {
        let (x, y, z) = coords(cube());
        let (sx, sy, sz) = build_symmetry_planes(cube());
        let en = N + 1;
        assert_eq!(sx.len(), en * en);
        assert_eq!(sz.len(), en * en);
        for n in wide(&sx) {
            assert_eq!(x[n], 0.0);
        }
        for n in wide(&sy) {
            assert_eq!(y[n], 0.0);
        }
        for n in wide(&sz) {
            assert_eq!(z[n], 0.0);
        }
    }

    #[test]
    fn interior_subdomain_has_no_z_symmetry_nodes() {
        let upper = MeshShape::brick((N, N, 2), (N, N, N), (0, 0, 2));
        let (sx, sy, sz) = build_symmetry_planes(upper);
        assert!(sz.is_empty());
        assert_eq!(sx.len(), (N + 1) * (2 + 1));
        assert_eq!(sy.len(), (N + 1) * (2 + 1));
    }

    #[test]
    fn offset_bricks_have_no_xy_symmetry_nodes() {
        let corner = MeshShape::brick((2, 2, 2), (N, N, N), (2, 2, 2));
        let (sx, sy, sz) = build_symmetry_planes(corner);
        assert!(sx.is_empty());
        assert!(sy.is_empty());
        assert!(sz.is_empty());
    }

    #[test]
    fn corner_lists_are_consistent() {
        let shape = MeshShape::brick((3, 4, 2), (3, 4, 2), (0, 0, 0));
        let nl = build_nodelist(shape);
        let num_node = shape.num_node();
        let mut corners = vec![0; nl.len()];
        let start = fill_node_elem_corners(&nl, num_node, &mut corners);
        let (nl, start, corners) = (wide(&nl), wide(&start), wide(&corners));
        assert_eq!(start[num_node], corners.len());
        assert_eq!(corners.len(), nl.len());
        for n in 0..num_node {
            for &c in &corners[start[n]..start[n + 1]] {
                assert_eq!(nl[c], n, "corner entry {c} of node {n}");
            }
        }
        assert_eq!(start[1] - start[0], 1, "corner node touches one element");
    }

    #[test]
    fn index_width_admits_edge_812_and_rejects_813() {
        // Extents only: neither shape is ever allocated.
        assert!(MeshShape::cube(MAX_EDGE).fits_mesh_index());
        assert!(!MeshShape::cube(MAX_EDGE + 1).fits_mesh_index());
        // 8·812³ fits u32, 8·813³ does not.
        assert!(8 * 812u64.pow(3) <= u32::MAX as u64);
        assert!(8 * 813u64.pow(3) > u32::MAX as u64);
        // A sub-brick is judged by its own extents.
        let half = MeshShape::brick((813, 813, 407), (813, 813, 813), (0, 0, 0));
        assert!(half.fits_mesh_index());
    }
}
