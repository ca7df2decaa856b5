//! Halo-exchange operations between grid-adjacent subdomains.
//!
//! Three exchanges per the LULESH MPI protocol, generalised from the ζ-slab
//! chain to a full 3-D rank grid with up to 26 neighbours per rank:
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
//! 1×1×1 sub-bricks, where every node lies on every surface of its axis
//! (the minimal-size off-by-one class the ζ-slab helpers used to risk).

use lulesh_core::domain::Domain;
use lulesh_core::mesh::{Face, MeshShape};
use lulesh_core::Real;
use obs::{SpanKind, Tracer};
use parcelnet::{dir, ParcelError, RankNet, Tag};
use std::collections::BTreeMap;
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
    match d {
        _ if d == dir::FACES[0] => Some(Face::Xm),
        _ if d == dir::FACES[1] => Some(Face::Xp),
        _ if d == dir::FACES[2] => Some(Face::Ym),
        _ if d == dir::FACES[3] => Some(Face::Yp),
        _ if d == dir::FACES[4] => Some(Face::Zm),
        _ if d == dir::FACES[5] => Some(Face::Zp),
        _ => None,
    }
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
    /// `Some` for face links: the COMM face, its boundary element plane,
    /// and the ghost-region base the neighbour's plane lands in.
    grad: Option<(Face, Vec<usize>, usize)>,
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
                    (face, shape.face_elems(face), base)
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

    /// Pack link `l`'s surface masses.
    pub fn pack_mass(&self, d: &Domain, l: usize) -> Vec<Real> {
        self.links[l]
            .nodes
            .iter()
            .map(|&n| d.nodal_mass(n))
            .collect()
    }

    /// Pack link `l`'s surface forces: `[fx…, fy…, fz…]`.
    pub fn pack_forces(&self, d: &Domain, l: usize) -> Vec<Real> {
        let nodes = &self.links[l].nodes;
        let mut out = Vec::with_capacity(3 * nodes.len());
        for &n in nodes {
            out.push(d.fx(n));
        }
        for &n in nodes {
            out.push(d.fy(n));
        }
        for &n in nodes {
            out.push(d.fz(n));
        }
        out
    }

    /// Pack link `l`'s boundary element plane of velocity gradients:
    /// `[xi…, eta…, zeta…]`. Face links only.
    pub fn pack_gradients(&self, d: &Domain, l: usize) -> Vec<Real> {
        let (_, elems, _) = self.links[l].grad.as_ref().expect("face link");
        let mut out = Vec::with_capacity(3 * elems.len());
        for &e in elems {
            out.push(d.delv_xi(e));
        }
        for &e in elems {
            out.push(d.delv_eta(e));
        }
        for &e in elems {
            out.push(d.delv_zeta(e));
        }
        out
    }

    /// Combine every link's received surface masses into the boundary
    /// nodes: per node, a fresh accumulator over all sharers' partials in
    /// ascending rank order. `recvs[l]` is the message from link `l`.
    pub fn combine_mass(&self, d: &Domain, recvs: &[Vec<Real>]) {
        debug_assert_eq!(recvs.len(), self.links.len());
        let own: Vec<Real> = self.combine.iter().map(|c| d.nodal_mass(c.node)).collect();
        for (c, &own_m) in self.combine.iter().zip(&own) {
            let mut acc = 0.0;
            for s in &c.sources {
                acc += match *s {
                    Source::Own => own_m,
                    Source::Link { link, pos } => recvs[link][pos],
                };
            }
            d.set_nodal_mass(c.node, acc);
        }
    }

    /// Combine every link's received surface forces (same ordering rule as
    /// [`HaloPlan::combine_mass`], per component).
    pub fn combine_forces(&self, d: &Domain, recvs: &[Vec<Real>]) {
        debug_assert_eq!(recvs.len(), self.links.len());
        for (l, link) in self.links.iter().enumerate() {
            assert_eq!(recvs[l].len(), 3 * link.nodes.len());
        }
        let own: Vec<(Real, Real, Real)> = self
            .combine
            .iter()
            .map(|c| (d.fx(c.node), d.fy(c.node), d.fz(c.node)))
            .collect();
        for (c, &(ox, oy, oz)) in self.combine.iter().zip(&own) {
            let (mut ax, mut ay, mut az) = (0.0, 0.0, 0.0);
            for s in &c.sources {
                let (px, py, pz) = match *s {
                    Source::Own => (ox, oy, oz),
                    Source::Link { link, pos } => {
                        let pn = self.links[link].nodes.len();
                        let m = &recvs[link];
                        (m[pos], m[pn + pos], m[2 * pn + pos])
                    }
                };
                ax += px;
                ay += py;
                az += pz;
            }
            d.set_fx(c.node, ax);
            d.set_fy(c.node, ay);
            d.set_fz(c.node, az);
        }
    }

    /// Store link `l`'s received gradient plane into this brick's ghost
    /// region for that face. Face links only.
    pub fn store_gradients(&self, d: &Domain, l: usize, remote: &[Real]) {
        let (_, elems, base) = self.links[l].grad.as_ref().expect("face link");
        let pe = elems.len();
        assert_eq!(remote.len(), 3 * pe);
        for i in 0..pe {
            d.set_delv_xi(base + i, remote[i]);
            d.set_delv_eta(base + i, remote[pe + i]);
            d.set_delv_zeta(base + i, remote[2 * pe + i]);
        }
    }
}

// ---------------------------------------------------------------------------
// Transport exchanges (threaded / task-parallel drivers).
//
// A message from rank A to rank B is tagged with A's *outgoing* direction,
// so B receives from its link in direction d under tag `opposite(d)`.
// Sends all go out before any receive: on transports whose sends never
// block the protocol thread (bounded channel slots, the TCP writer thread)
// that keeps the whole grid deadlock-free regardless of neighbour order.
// ---------------------------------------------------------------------------

/// Transport nodal-mass halo sum (setup-time `CommSBN` for masses).
pub fn halo_exchange_mass(
    d: &Domain,
    plan: &HaloPlan,
    net: &RankNet,
    obs: ObsCtx,
) -> Result<(), ParcelError> {
    send_mass(d, plan, net, obs)?;
    recv_combine_mass(d, plan, net, obs)
}

/// The send half of the mass exchange: every boundary surface goes out
/// before any receive.
fn send_mass(d: &Domain, plan: &HaloPlan, net: &RankNet, obs: ObsCtx) -> Result<(), ParcelError> {
    for (l, nbr) in net.neighbors.iter().enumerate() {
        let msg = plan.pack_mass(d, l);
        spanned(obs, "send-mass", || {
            nbr.link.send(Tag::mass(nbr.dir as usize), &msg)
        })?;
    }
    Ok(())
}

/// The receive half of the mass exchange: collect every neighbour's
/// surface, then run the deterministic combine.
fn recv_combine_mass(
    d: &Domain,
    plan: &HaloPlan,
    net: &RankNet,
    obs: ObsCtx,
) -> Result<(), ParcelError> {
    let mut recvs = Vec::with_capacity(net.neighbors.len());
    for nbr in &net.neighbors {
        let tag = Tag::mass(dir::opposite(nbr.dir as usize));
        recvs.push(spanned(obs, "recv-mass", || nbr.link.recv(tag))?);
    }
    plan.combine_mass(d, &recvs);
    Ok(())
}

/// Transport force halo sum (per-iteration `CommSBN`).
pub fn halo_exchange_forces(
    d: &Domain,
    plan: &HaloPlan,
    net: &RankNet,
    obs: ObsCtx,
) -> Result<(), ParcelError> {
    send_forces(d, plan, net, obs)?;
    recv_combine_forces(d, plan, net, obs)
}

/// The send half of the force exchange, for comm/compute overlap: pack and
/// post every boundary surface. Safe to run as soon as the *boundary* node
/// forces are gathered; the interior can still be in flight.
pub fn send_forces(
    d: &Domain,
    plan: &HaloPlan,
    net: &RankNet,
    obs: ObsCtx,
) -> Result<(), ParcelError> {
    for (l, nbr) in net.neighbors.iter().enumerate() {
        let msg = plan.pack_forces(d, l);
        spanned(obs, "send-force", || {
            nbr.link.send(Tag::force(nbr.dir as usize), &msg)
        })?;
    }
    Ok(())
}

/// The receive half of the force exchange, for comm/compute overlap:
/// receive every neighbour's surface, then run the ascending-rank combine
/// (identical order to [`halo_exchange_forces`], so overlapped runs stay
/// bit-identical). Runs concurrently with interior compute.
pub fn recv_combine_forces(
    d: &Domain,
    plan: &HaloPlan,
    net: &RankNet,
    obs: ObsCtx,
) -> Result<(), ParcelError> {
    let mut recvs = Vec::with_capacity(net.neighbors.len());
    for nbr in &net.neighbors {
        let tag = Tag::force(dir::opposite(nbr.dir as usize));
        recvs.push(spanned(obs, "recv-force", || nbr.link.recv(tag))?);
    }
    plan.combine_forces(d, &recvs);
    Ok(())
}

/// Transport gradient ghost exchange (per-iteration `CommMonoQ`): face
/// links only, each stored independently on arrival.
pub fn halo_exchange_gradients(
    d: &Domain,
    plan: &HaloPlan,
    net: &RankNet,
    obs: ObsCtx,
) -> Result<(), ParcelError> {
    send_gradients(d, plan, net, obs)?;
    recv_store_gradients(d, plan, net, obs)
}

/// The send half of the gradient exchange (face links only).
fn send_gradients(
    d: &Domain,
    plan: &HaloPlan,
    net: &RankNet,
    obs: ObsCtx,
) -> Result<(), ParcelError> {
    for (l, nbr) in net.neighbors.iter().enumerate() {
        if plan.links()[l].grad.is_none() {
            continue;
        }
        let msg = plan.pack_gradients(d, l);
        spanned(obs, "send-gradient", || {
            nbr.link.send(Tag::gradient(nbr.dir as usize), &msg)
        })?;
    }
    Ok(())
}

/// The receive half of the gradient exchange: each face plane is stored
/// independently on arrival.
fn recv_store_gradients(
    d: &Domain,
    plan: &HaloPlan,
    net: &RankNet,
    obs: ObsCtx,
) -> Result<(), ParcelError> {
    for (l, nbr) in net.neighbors.iter().enumerate() {
        if plan.links()[l].grad.is_none() {
            continue;
        }
        let tag = Tag::gradient(dir::opposite(nbr.dir as usize));
        let remote = spanned(obs, "recv-gradient", || nbr.link.recv(tag))?;
        plan.store_gradients(d, l, &remote);
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Lockstep exchanges (the in-process World): the same pack/combine code
// over direct memory instead of a wire, so the World is the bitwise
// reference every transport is measured against.
// ---------------------------------------------------------------------------

/// Gather what every rank would receive: `recvs[r][l]` is the pack its
/// link-`l` neighbour sent toward `r` (the neighbour's opposite surface).
fn lockstep_recvs(
    domains: &[Domain],
    plans: &[HaloPlan],
    pack: impl Fn(&HaloPlan, &Domain, usize) -> Vec<Real>,
    faces_only: bool,
) -> Vec<Vec<Vec<Real>>> {
    plans
        .iter()
        .map(|plan| {
            plan.links()
                .iter()
                .map(|link| {
                    if faces_only && link.grad.is_none() {
                        return Vec::new();
                    }
                    let nplan = &plans[link.rank];
                    let back = nplan
                        .link_index(dir::opposite(link.dir))
                        .expect("grid neighbour links are symmetric");
                    pack(nplan, &domains[link.rank], back)
                })
                .collect()
        })
        .collect()
}

/// Lockstep nodal-mass halo sum across every rank of a world.
pub fn lockstep_exchange_mass(domains: &[Domain], plans: &[HaloPlan]) {
    let recvs = lockstep_recvs(domains, plans, HaloPlan::pack_mass, false);
    for ((d, plan), r) in domains.iter().zip(plans).zip(&recvs) {
        plan.combine_mass(d, r);
    }
}

/// Lockstep force halo sum across every rank of a world.
pub fn lockstep_exchange_forces(domains: &[Domain], plans: &[HaloPlan]) {
    let recvs = lockstep_recvs(domains, plans, HaloPlan::pack_forces, false);
    for ((d, plan), r) in domains.iter().zip(plans).zip(&recvs) {
        plan.combine_forces(d, r);
    }
}

/// Lockstep gradient ghost exchange across every rank of a world.
pub fn lockstep_exchange_gradients(domains: &[Domain], plans: &[HaloPlan]) {
    let recvs = lockstep_recvs(domains, plans, HaloPlan::pack_gradients, true);
    for ((d, plan), r) in domains.iter().zip(plans).zip(&recvs) {
        for (l, buf) in r.iter().enumerate() {
            if plan.links()[l].grad.is_some() {
                plan.store_gradients(d, l, buf);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Decomposition, Grid3};

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
        lockstep_exchange_forces(&domains, &plans);
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
        lockstep_exchange_mass(&domains, &plans);
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
        lockstep_exchange_gradients(&domains, &plans);
        let la = plans[0].link_index(dir::index(1, 0, 0)).unwrap();
        let (_, elems_a, _) = plans[0].links()[la].grad.as_ref().unwrap();
        let base_a = decomp.shape(0).ghost_base(Face::Xp).unwrap();
        let elems_b = decomp.shape(1).face_elems(Face::Xm);
        for (i, &eb) in elems_b.iter().enumerate() {
            assert_eq!(a.delv_xi(base_a + i), -(1.0 + eb as Real));
        }
        // The boundary elements' ξ neighbours resolve into the ghosts.
        let first_boundary = elems_a[0];
        assert_eq!(a.m_lxip[first_boundary], base_a);
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
