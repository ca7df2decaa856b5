//! Halo exchange between grid-adjacent subdomains: one pack/apply path
//! ([`HaloPlan::pack`], [`HaloPlan::apply`]) for the three [`Halo`] kinds
//! of the LULESH MPI protocol, generalised from the ζ-slab chain to a 3-D
//! rank grid with up to 26 neighbours per rank:
//!
//! 1. **nodal mass** (once, at setup): boundary nodes exist on every
//!    sub-brick sharing them; each copy needs the *sum* of all sharers'
//!    contributions. A face node has 2 sharers, an edge node 4, a corner
//!    node 8.
//! 2. **nodal forces** (per iteration, after `CalcForceForNodes`): the same
//!    sum, for `fx/fy/fz`.
//! 3. **velocity gradients** (per iteration, after
//!    `CalcMonotonicQGradientsForElems`): each side copies its neighbour's
//!    boundary element plane of `delv_xi/eta/zeta` into the ghost region the
//!    redirected `lxim/lxip/letam/letap/lzetam/lzetap` of its boundary
//!    elements point at. Only the 6 **faces** exchange gradients — the
//!    monotonic-q stencil reads one neighbour along each axis and never a
//!    diagonal.
//!
//! **Bitwise determinism.** Every sharer of a boundary node evaluates the
//! identical sum: a zero-initialised accumulator over the sharers'
//! pre-exchange partial values in ascending rank order. Because all copies
//! run the same additions in the same order, the duplicated nodes stay
//! bit-identical across sub-bricks and integrate identically forever
//! without further synchronization.
//!
//! **Surface geometry.** Each of the 26 neighbour directions owns one
//! surface of the brick's node lattice: a face plane, an edge line, or a
//! corner point (see [`dir_nodes`]). Surfaces overlap — a face plane
//! contains its four edge lines and corner nodes — and that is load-bearing:
//! an edge node shared by four ranks receives one partial from each of its
//! two face neighbours (inside their face-plane messages) and one from the
//! diagonal edge neighbour (the edge-line message), which together with the
//! local partial are exactly the four sharers.
//!
//! All surfaces enumerate nodes/elements in ascending index order (ζ plane,
//! then η row, then ξ column). Matching surfaces of adjacent sub-bricks
//! list geometrically-coincident entries at the same position because grid
//! neighbours share their tangential extents — so a packed message needs no
//! index translation on the receiving side. This holds down to degenerate
//! 1×1×1 sub-bricks, where every node lies on every surface of its axis.

use lulesh_core::domain::{Domain, Field};
use lulesh_core::mesh::{Face, MeshShape};
use lulesh_core::plan::Halo;
use lulesh_core::types::Real;
use obs::{SpanKind, Tracer};
use parcelnet::{dir, ParcelError, RankNet, Tag};
use std::collections::BTreeMap;
use std::io::ErrorKind;
use std::ops::Range;

/// Optional comm tracing: `(tracer, lane)` — every transport send/recv in
/// the exchange gets its own [`SpanKind::Halo`] span on the rank's lane.
pub type ObsCtx<'a> = Option<(&'a Tracer, usize)>;

fn spanned<T>(obs: ObsCtx, label: &'static str, f: impl FnOnce() -> T) -> T {
    match obs {
        Some((t, lane)) => {
            let start = t.now_ns();
            let out = f();
            t.record_interval(lane, SpanKind::Halo, label, start, t.now_ns());
            out
        }
        None => f(),
    }
}

/// The fields a `kind` message carries, in message order: the masses,
/// `[fx, fy, fz]` or `[delv_xi, delv_eta, delv_zeta]`.
fn fields(kind: Halo) -> &'static [Field] {
    match kind {
        Halo::Mass => &[Field::NodalMass],
        Halo::Forces => &[Field::Fx, Field::Fy, Field::Fz],
        Halo::Gradients => &[Field::DelvXi, Field::DelvEta, Field::DelvZeta],
    }
}

/// The span labels of one link's send and receive, by kind.
const SEND_LABELS: [&str; 3] = ["send-mass", "send-force", "send-gradient"];
const RECV_LABELS: [&str; 3] = ["recv-mass", "recv-force", "recv-gradient"];

/// Node indices on the `d`-side surface of the brick: the full face plane
/// for a face direction, an edge line for an edge direction, a single
/// corner node for a corner direction. Ascending index order (ζ, η, ξ).
pub fn dir_nodes(shape: &MeshShape, d: usize) -> Vec<usize> {
    assert!(d < dir::COUNT && d != dir::SELF_INDEX);
    let (dx, dy, dz) = dir::components(d);
    let side = |delta: i32, n: usize| match delta {
        -1 => 0..=0,
        1 => n..=n,
        _ => 0..=n,
    };
    let rn = shape.nx + 1;
    let pn = shape.nodes_per_plane();
    let mut out = Vec::new();
    for z in side(dz, shape.nz) {
        for y in side(dy, shape.ny) {
            for x in side(dx, shape.nx) {
                out.push(z * pn + y * rn + x);
            }
        }
    }
    out
}

/// The COMM face a *face* direction corresponds to; `None` for edge and
/// corner directions (which exchange nodal sums but no gradient ghosts).
pub fn dir_face(d: usize) -> Option<Face> {
    dir::FACES
        .iter()
        .position(|&f| f == d)
        .map(|i| Face::ALL[i])
}

/// Where one contribution to a boundary node comes from.
enum Source {
    /// This rank's own pre-exchange partial.
    Own,
    /// Position `pos` of the message received over link `link`.
    Link { link: usize, pos: usize },
}

/// One boundary node and its contribution schedule, pre-sorted by
/// contributor rank so every sharer sums in the identical order.
struct NodeCombine {
    node: usize,
    sources: Vec<Source>,
}

/// One neighbour link: the surface of this brick it exchanges, plus the
/// gradient ghost-plane bookkeeping for face links.
pub struct HaloLink {
    /// The neighbour's rank.
    pub rank: usize,
    /// Direction from this rank toward the neighbour (the tag this rank
    /// sends under; receives carry [`dir::opposite`]).
    pub dir: usize,
    /// This brick's nodes on the shared surface, canonical order.
    pub nodes: Vec<usize>,
    /// `Some` for face links: the boundary element plane, and the
    /// ghost-region base the neighbour's plane lands in.
    grad: Option<(Vec<usize>, usize)>,
}

/// The precomputed exchange schedule for one rank: its links (sorted by
/// direction, matching [`RankNet::neighbors`]), the per-node combine
/// schedule, and the boundary node set as merged contiguous runs (the
/// comm/compute-overlap split hands these to the task runtime).
pub struct HaloPlan {
    links: Vec<HaloLink>,
    combine: Vec<NodeCombine>,
    boundary: Vec<Range<usize>>,
}

impl HaloPlan {
    /// Build the schedule for `rank`'s sub-brick given its neighbour list
    /// (`(neighbour rank, direction toward it)`, one entry per grid
    /// neighbour). The list is re-sorted by direction so link indices line
    /// up with a [`RankNet`]'s direction-sorted `neighbors`.
    pub fn new(shape: MeshShape, rank: usize, neighbors: &[(usize, usize)]) -> Self {
        let mut sorted: Vec<(usize, usize)> = neighbors.to_vec();
        sorted.sort_by_key(|&(_, d)| d);
        let links: Vec<HaloLink> = sorted
            .iter()
            .map(|&(nrank, d)| {
                let grad = dir_face(d).map(|face| {
                    let base = shape
                        .ghost_base(face)
                        .expect("a grid neighbour implies a COMM face");
                    (shape.face_elems(face), base)
                });
                HaloLink {
                    rank: nrank,
                    dir: d,
                    nodes: dir_nodes(&shape, d),
                    grad,
                }
            })
            .collect();

        // Per boundary node: every (contributor rank, source) pair, then
        // sort by rank. Distinct directions are distinct bricks, so the
        // contributor ranks at one node are unique.
        let mut by_node: BTreeMap<usize, Vec<(usize, Source)>> = BTreeMap::new();
        for (l, link) in links.iter().enumerate() {
            for (pos, &n) in link.nodes.iter().enumerate() {
                by_node
                    .entry(n)
                    .or_default()
                    .push((link.rank, Source::Link { link: l, pos }));
            }
        }
        let combine: Vec<NodeCombine> = by_node
            .into_iter()
            .map(|(node, mut sources)| {
                sources.push((rank, Source::Own));
                sources.sort_by_key(|&(r, _)| r);
                NodeCombine {
                    node,
                    sources: sources.into_iter().map(|(_, s)| s).collect(),
                }
            })
            .collect();

        // Merge the (sorted, unique) boundary nodes into contiguous runs.
        let mut boundary: Vec<Range<usize>> = Vec::new();
        for c in &combine {
            match boundary.last_mut() {
                Some(r) if r.end == c.node => r.end = c.node + 1,
                _ => boundary.push(c.node..c.node + 1),
            }
        }

        HaloPlan {
            links,
            combine,
            boundary,
        }
    }

    /// Build the schedule straight from a bootstrapped [`RankNet`].
    pub fn for_net(shape: MeshShape, net: &RankNet) -> Self {
        let neighbors: Vec<(usize, usize)> = net
            .neighbors
            .iter()
            .map(|n| (n.rank, n.dir as usize))
            .collect();
        Self::new(shape, net.rank, &neighbors)
    }

    /// The neighbour links, sorted by direction.
    pub fn links(&self) -> &[HaloLink] {
        &self.links
    }

    /// Index of the link in direction `d`, if that neighbour exists.
    pub fn link_index(&self, d: usize) -> Option<usize> {
        self.links.iter().position(|l| l.dir == d)
    }

    /// Boundary node set as merged contiguous runs (for the overlap split).
    pub fn boundary_runs(&self) -> &[Range<usize>] {
        &self.boundary
    }

    /// The indices link `l` moves for `kind`: its surface nodes for the
    /// nodal sums, its boundary element plane for gradients — empty on an
    /// edge or corner link, which trades no gradients.
    fn surface(&self, kind: Halo, l: usize) -> &[usize] {
        match (kind, &self.links[l].grad) {
            (Halo::Gradients, Some((elems, _))) => elems,
            (Halo::Gradients, None) => &[],
            _ => &self.links[l].nodes,
        }
    }

    /// Pack link `l`'s `kind` surface field after field: masses, `[fx…,
    /// fy…, fz…]` or `[xi…, eta…, zeta…]` (empty where it trades none).
    pub fn pack(&self, kind: Halo, d: &Domain, l: usize) -> Vec<Real> {
        let index = self.surface(kind, l);
        let mut out = Vec::with_capacity(fields(kind).len() * index.len());
        for &f in fields(kind) {
            out.extend(index.iter().map(|&i| d.get(f, i)));
        }
        out
    }

    /// Apply every link's received `kind` surface (`recvs[l]` came over
    /// link `l`): sum masses or forces into the boundary nodes, or store
    /// gradient planes into each face's ghost region.
    pub fn apply(&self, kind: Halo, d: &Domain, recvs: &[Vec<Real>]) {
        debug_assert_eq!(recvs.len(), self.links.len());
        match kind {
            Halo::Mass => self.sum::<1>(kind, d, recvs),
            Halo::Forces => self.sum::<3>(kind, d, recvs),
            Halo::Gradients => {
                for (link, m) in self.links.iter().zip(recvs) {
                    if let Some((elems, base)) = &link.grad {
                        for (&f, plane) in fields(kind).iter().zip(m.chunks(elems.len())) {
                            for (i, &v) in plane.iter().enumerate() {
                                d.set(f, base + i, v);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Sum the `N` fields of `kind` into the boundary nodes in ascending
    /// rank order (`N` is a constant, so the field loops unroll).
    fn sum<const N: usize>(&self, kind: Halo, d: &Domain, recvs: &[Vec<Real>]) {
        let fields = fields(kind);
        for c in &self.combine {
            let mut acc = [0.0; N];
            for s in &c.sources {
                for (f, a) in acc.iter_mut().enumerate() {
                    *a += match *s {
                        Source::Own => d.get(fields[f], c.node),
                        Source::Link { link, pos } => {
                            recvs[link][f * self.links[link].nodes.len() + pos]
                        }
                    };
                }
            }
            for (f, &a) in acc.iter().enumerate() {
                d.set(fields[f], c.node, a);
            }
        }
    }

    /// Pack link `l`'s surface forces: `[fx…, fy…, fz…]`.
    pub fn pack_forces(&self, d: &Domain, l: usize) -> Vec<Real> {
        self.pack(Halo::Forces, d, l)
    }

    /// Pack link `l`'s gradient plane: `[xi…, eta…, zeta…]`.
    pub fn pack_gradients(&self, d: &Domain, l: usize) -> Vec<Real> {
        self.pack(Halo::Gradients, d, l)
    }

    /// Sum every link's received surface forces into the boundary nodes.
    pub fn combine_forces(&self, d: &Domain, recvs: &[Vec<Real>]) {
        self.apply(Halo::Forces, d, recvs)
    }
}

/// One whole `kind` exchange over `net`: [`send`], then [`recv_apply`].
/// Sends all go out before any receive: on transports whose sends never
/// block the protocol thread (bounded channel slots, the TCP link's
/// outbox) that keeps the whole grid deadlock-free in any neighbour order.
pub fn exchange(
    kind: Halo,
    d: &Domain,
    plan: &HaloPlan,
    net: &RankNet,
    obs: ObsCtx,
) -> Result<(), ParcelError> {
    send(kind, d, plan, net, obs)?;
    recv_apply(kind, d, plan, net, obs)
}

/// The send half of a `kind` exchange: pack and post every link's surface,
/// tagged with this rank's outgoing direction.
pub fn send(
    kind: Halo,
    d: &Domain,
    plan: &HaloPlan,
    net: &RankNet,
    obs: ObsCtx,
) -> Result<(), ParcelError> {
    for (l, nbr) in net.neighbors.iter().enumerate() {
        if !plan.surface(kind, l).is_empty() {
            let msg = plan.pack(kind, d, l);
            let tag = Tag::halo(kind, nbr.dir as usize);
            spanned(obs, SEND_LABELS[kind as usize], || nbr.link.send(tag, &msg))?;
        }
    }
    Ok(())
}

/// The receive half of a `kind` exchange: receive every link's surface
/// (tagged with the opposite direction) and [`HaloPlan::apply`] them all.
/// A payload of the wrong length — a peer built for another mesh — is
/// `Io(InvalidData)`, like any other malformed frame.
pub fn recv_apply(
    kind: Halo,
    d: &Domain,
    plan: &HaloPlan,
    net: &RankNet,
    obs: ObsCtx,
) -> Result<(), ParcelError> {
    let mut recvs = Vec::with_capacity(net.neighbors.len());
    for (l, nbr) in net.neighbors.iter().enumerate() {
        let index = plan.surface(kind, l);
        let tag = Tag::halo(kind, dir::opposite(nbr.dir as usize));
        let msg = match index.is_empty() {
            true => Vec::new(),
            false => spanned(obs, RECV_LABELS[kind as usize], || nbr.link.recv(tag))?,
        };
        if msg.len() != fields(kind).len() * index.len() {
            return Err(ParcelError::Io(ErrorKind::InvalidData));
        }
        recvs.push(msg);
    }
    plan.apply(kind, d, &recvs);
    Ok(())
}

/// Lockstep `kind` exchange across every rank of the in-process
/// [`World`](crate::World): the same pack and apply as the transports over
/// direct memory, so the `World` is the bitwise reference every transport
/// is measured against. Every pack is taken before any apply.
pub fn lockstep(kind: Halo, domains: &[Domain], plans: &[HaloPlan]) {
    let toward = |link: &HaloLink| {
        let nplan = &plans[link.rank];
        let back = nplan
            .link_index(dir::opposite(link.dir))
            .expect("grid neighbour links are symmetric");
        nplan.pack(kind, &domains[link.rank], back)
    };
    let recvs: Vec<Vec<Vec<Real>>> = plans
        .iter()
        .map(|plan| plan.links.iter().map(toward).collect())
        .collect();
    for ((d, plan), r) in domains.iter().zip(plans).zip(&recvs) {
        plan.apply(kind, d, r);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Decomposition, Grid3};
    use parcelnet::channel::channel_mesh;
    use std::time::Duration;

    /// Build one domain per rank of `grid` at global `size`, plus plans.
    fn world(size: usize, grid: Grid3) -> (Vec<Domain>, Vec<HaloPlan>) {
        let decomp = Decomposition::with_grid(size, grid);
        let domains: Vec<Domain> = (0..decomp.ranks())
            .map(|r| Domain::build_subdomain(decomp.shape(r), 1, 1, 1, 0))
            .collect();
        let plans: Vec<HaloPlan> = (0..decomp.ranks())
            .map(|r| HaloPlan::new(decomp.shape(r), r, &decomp.neighbors(r)))
            .collect();
        (domains, plans)
    }

    /// Global node id of local node `n` on rank `r` (for seeding fields
    /// with rank-independent values).
    fn global_node(decomp: &Decomposition, r: usize, n: usize) -> usize {
        decomp.global_node(r, n)
    }

    #[test]
    fn dir_nodes_counts_faces_edges_corners() {
        let shape = MeshShape::brick((2, 3, 4), (4, 6, 8), (2, 3, 4));
        // Face ξ+: (ny+1)(nz+1) nodes.
        assert_eq!(dir_nodes(&shape, dir::index(1, 0, 0)).len(), 4 * 5);
        // Edge (ξ+, η+): nz+1 nodes.
        assert_eq!(dir_nodes(&shape, dir::index(1, 1, 0)).len(), 5);
        // Corner: exactly one node, the far corner.
        let corner = dir_nodes(&shape, dir::index(1, 1, 1));
        assert_eq!(corner, vec![shape.num_node() - 1]);
        // Face ζ−: the first node plane, in index order.
        let zm = dir_nodes(&shape, dir::index(0, 0, -1));
        assert_eq!(zm, (0..shape.nodes_per_plane()).collect::<Vec<_>>());
    }

    #[test]
    fn matching_surfaces_enumerate_coincident_nodes() {
        // Two bricks adjacent along ξ: A's ξ+ surface and B's ξ− surface
        // must list the same global nodes at the same positions — for the
        // face, an edge, and the corner.
        let decomp = Decomposition::with_grid(4, Grid3::new(2, 2, 2));
        let a = 0; // rank at grid coords (0,0,0)
        for da in [
            dir::index(1, 0, 0),
            dir::index(1, 1, 0),
            dir::index(1, 1, 1),
        ] {
            let db = dir::opposite(da);
            let (dx, dy, dz) = dir::components(da);
            let nb = decomp.grid().rank_at(dx as usize, dy as usize, dz as usize);
            let sa = dir_nodes(&decomp.shape(a), da);
            let sb = dir_nodes(&decomp.shape(nb), db);
            assert_eq!(sa.len(), sb.len());
            for (pa, pb) in sa.iter().zip(&sb) {
                assert_eq!(
                    global_node(&decomp, a, *pa),
                    global_node(&decomp, nb, *pb),
                    "surfaces {da}/{db} must be coincident in order"
                );
            }
        }
    }

    /// Property-style round trip over every surface kind: seed each rank's
    /// forces with a rank-independent function of the *global* node id plus
    /// a rank-dependent partial, run the lockstep exchange, and check every
    /// boundary node against an independently computed sum over its sharers
    /// — and that all sharers agree bitwise.
    fn force_roundtrip(size: usize, grid: Grid3) {
        let decomp = Decomposition::with_grid(size, grid);
        let (domains, plans) = world(size, grid);
        let partial = |r: usize, g: usize| (1.0 + r as Real) * 0.01 + (g as Real).sin();
        for (r, d) in domains.iter().enumerate() {
            for n in 0..d.num_node() {
                let g = global_node(&decomp, r, n);
                d.set_fx(n, partial(r, g));
                d.set_fy(n, -partial(r, g));
                d.set_fz(n, 2.0 * partial(r, g));
            }
        }
        lockstep(Halo::Forces, &domains, &plans);
        // Independent reference: for each global node, the sharers are all
        // ranks whose brick contains it; sum ascending.
        let mut by_global: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
        for (r, d) in domains.iter().enumerate() {
            for n in 0..d.num_node() {
                by_global
                    .entry(global_node(&decomp, r, n))
                    .or_default()
                    .push((r, n));
            }
        }
        for (g, sharers) in by_global {
            let expect: Real = sharers.iter().map(|&(r, _)| partial(r, g)).sum();
            for &(r, n) in &sharers {
                assert_eq!(
                    domains[r].fx(n),
                    expect,
                    "global node {g}: rank {r} ({} sharers)",
                    sharers.len()
                );
            }
            // All copies bitwise identical (fy/fz too).
            let first = sharers[0];
            for &(r, n) in &sharers[1..] {
                assert_eq!(domains[r].fy(n), domains[first.0].fy(first.1));
                assert_eq!(domains[r].fz(n), domains[first.0].fz(first.1));
            }
        }
    }

    #[test]
    fn force_roundtrip_covers_faces_chain() {
        force_roundtrip(4, Grid3::new(1, 1, 2));
    }

    #[test]
    fn force_roundtrip_covers_edges_and_corners() {
        force_roundtrip(4, Grid3::new(2, 2, 2));
    }

    #[test]
    fn force_roundtrip_minimal_one_elem_subbricks() {
        // Size-1 sub-bricks: every node is a boundary node and the corner
        // node of the grid centre is shared by all 8 ranks. Regression for
        // the ζ-slab-era plane arithmetic that broke at minimal sizes.
        force_roundtrip(2, Grid3::new(2, 2, 2));
    }

    #[test]
    fn mass_roundtrip_agrees_across_sharers() {
        let size = 4;
        let grid = Grid3::new(2, 1, 2);
        let decomp = Decomposition::with_grid(size, grid);
        let (domains, plans) = world(size, grid);
        lockstep(Halo::Mass, &domains, &plans);
        let single = Domain::build(size, 1, 1, 1, 0);
        let mut by_global: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
        for (r, d) in domains.iter().enumerate() {
            for n in 0..d.num_node() {
                by_global
                    .entry(global_node(&decomp, r, n))
                    .or_default()
                    .push((r, n));
            }
        }
        for (g, sharers) in by_global {
            for &(r, n) in &sharers {
                assert!(
                    (domains[r].nodal_mass(n) - single.nodal_mass(g)).abs() < 1e-12,
                    "global node {g} rank {r}"
                );
                assert_eq!(
                    domains[r].nodal_mass(n),
                    domains[sharers[0].0].nodal_mass(sharers[0].1)
                );
            }
        }
    }

    #[test]
    fn gradient_exchange_fills_ghost_regions() {
        // Two bricks along ξ; gradients cross only the face links, and
        // land in the ghost region the connectivity points at.
        let grid = Grid3::new(2, 1, 1);
        let decomp = Decomposition::with_grid(4, grid);
        let (domains, plans) = world(4, grid);
        let (a, b) = (&domains[0], &domains[1]);
        for e in 0..a.num_elem() {
            a.set_delv_xi(e, 100.0 + e as Real);
        }
        for e in 0..b.num_elem() {
            b.set_delv_xi(e, -(1.0 + e as Real));
        }
        lockstep(Halo::Gradients, &domains, &plans);
        let la = plans[0].link_index(dir::index(1, 0, 0)).unwrap();
        let (elems_a, _) = plans[0].links()[la].grad.as_ref().unwrap();
        let base_a = decomp.shape(0).ghost_base(Face::Xp).unwrap();
        let elems_b = decomp.shape(1).face_elems(Face::Xm);
        for (i, &eb) in elems_b.iter().enumerate() {
            assert_eq!(a.delv_xi(base_a + i), -(1.0 + eb as Real));
        }
        // The boundary elements' ξ neighbours resolve into the ghosts.
        let first_boundary = elems_a[0];
        assert_eq!(a.m_lxip[first_boundary] as usize, base_a);
    }

    #[test]
    fn wrong_length_payloads_are_invalid_data_not_panics() {
        // Two ζ ranks over channels: rank 1 sends rank 0 a short force
        // frame, a long mass frame and a short gradient frame, as a peer
        // started with another --s would.
        let decomp = Decomposition::with_grid(4, Grid3::new(1, 1, 2));
        let mut nets = channel_mesh(2, Duration::from_secs(2)).into_iter();
        let (net0, net1) = (nets.next().unwrap(), nets.next().unwrap());
        let plan = HaloPlan::for_net(decomp.shape(0), &net0);
        let d = Domain::build_subdomain(decomp.shape(0), 1, 1, 1, 0);
        let n = plan.links()[0].nodes.len();
        let down = &net1.neighbors[0].link;
        down.send(Tag::force(dir::DOWN), &vec![0.0; 3 * n - 1])
            .unwrap();
        down.send(Tag::mass(dir::DOWN), &vec![0.0; n + 1]).unwrap();
        down.send(Tag::gradient(dir::DOWN), &[0.0]).unwrap();
        for kind in [Halo::Forces, Halo::Mass, Halo::Gradients] {
            assert_eq!(
                recv_apply(kind, &d, &plan, &net0, None),
                Err(ParcelError::Io(ErrorKind::InvalidData)),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn boundary_runs_cover_exactly_the_boundary() {
        let grid = Grid3::new(2, 2, 2);
        let decomp = Decomposition::with_grid(4, grid);
        let plan = HaloPlan::new(decomp.shape(0), 0, &decomp.neighbors(0));
        let covered: usize = plan.boundary_runs().iter().map(|r| r.len()).sum();
        // Rank (0,0,0) of a 2×2×2 grid has COMM faces ξ+, η+, ζ+: the
        // boundary is the union of three 3×3 node planes of its 2³ brick.
        assert_eq!(covered, 27 - 8); // 3³ lattice minus the 2³ interior-corner block
        let mut prev_end = 0;
        for r in plan.boundary_runs() {
            assert!(r.start >= prev_end, "runs must be sorted and disjoint");
            prev_end = r.end;
        }
    }
}
