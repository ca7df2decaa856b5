//! Cross-transport equivalence: the transport moves bytes, never physics.
//! Chain and 3-D grid decompositions of the lockstep reference world, the
//! channel transport, and the TCP-loopback transport must produce
//! **bit-identical** subdomains — including the duplicated interface
//! surfaces (faces, edges and corners), which every sharing rank combines
//! in the same ascending-rank order regardless of the wire underneath.
//! Against the *serial single-domain* solution the comparison is `<= 1e-7`
//! rather than bitwise: the decomposed runs sum boundary-node force
//! partials in a fixed sharer order that differs from the serial
//! element-loop accumulation order, so the last few bits of the floating
//! point results legitimately differ. Task ranks, whose force exchange
//! overlaps the interior gathers, are held to the bitwise standard too:
//! comm/compute overlap changes scheduling only.

use lulesh::core::validate::max_field_difference;
use multidom::{
    threaded, Decomposition, FaultPlan, Grid3, RankExec, RunPlan, SimArgs, TransportKind, World,
};
use parcelnet::dir;
use std::time::Duration;

const CYCLES: u64 = 10;
const DEADLINE: Duration = Duration::from_secs(10);

fn sim() -> SimArgs {
    SimArgs::new(2, 1, 1, 0, CYCLES)
}

/// Run the threaded driver over `kind` and return the final subdomains.
fn run_threaded(decomp: Decomposition, kind: TransportKind) -> Vec<lulesh::core::Domain> {
    threaded::run_transport(decomp, kind, DEADLINE, sim(), None, FaultPlan::NONE)
        .into_iter()
        .enumerate()
        .map(|(r, res)| {
            let (d, st) = res.unwrap_or_else(|e| panic!("{kind:?} rank {r}: {e}"));
            assert_eq!(st.cycle, CYCLES);
            d
        })
        .collect()
}

/// Count bitwise mismatches across every duplicated interface surface of a
/// decomposed run: for each neighbour pair, the nodes of the shared
/// surface (a face plane, an edge line or a single corner node) must hold
/// identical bits on both ranks.
fn interface_mismatches(decomp: &Decomposition, domains: &[lulesh::core::Domain]) -> usize {
    let mut mismatches = 0;
    for r in 0..decomp.ranks() {
        for (nbr, d) in decomp.neighbors(r) {
            if nbr < r {
                continue; // each pair once
            }
            let a = &domains[r];
            let b = &domains[nbr];
            let sa = multidom::exchange::dir_nodes(&decomp.shape(r), d);
            let sb = multidom::exchange::dir_nodes(&decomp.shape(nbr), dir::opposite(d));
            assert_eq!(sa.len(), sb.len());
            for (&na, &nb) in sa.iter().zip(&sb) {
                if a.x(na) != b.x(nb)
                    || a.y(na) != b.y(nb)
                    || a.z(na) != b.z(nb)
                    || a.xd(na) != b.xd(nb)
                    || a.yd(na) != b.yd(nb)
                    || a.zd(na) != b.zd(nb)
                {
                    mismatches += 1;
                }
            }
        }
    }
    mismatches
}

#[test]
fn channel_and_tcp_match_lockstep_bitwise() {
    for size in [6usize, 12] {
        for ranks in [2usize, 3] {
            let decomp = Decomposition::new(size, ranks);
            let mut world = World::build(decomp, 2, 1, 1, 0);
            world.run(CYCLES).unwrap();

            for kind in [TransportKind::Channel, TransportKind::TcpLoopback] {
                let domains = run_threaded(decomp, kind);
                for (r, (a, b)) in world.domains.iter().zip(&domains).enumerate() {
                    assert_eq!(
                        max_field_difference(a, b),
                        0.0,
                        "size {size} ranks {ranks} {kind:?} rank {r}: \
                         transport changed the physics"
                    );
                }
            }
        }
    }
}

#[test]
fn grid_decompositions_match_lockstep_bitwise_and_serial_loosely() {
    // 3-D rank grids across every transport: ζ-chain, ξ×η transverse
    // plane, and the full octant split with edge and corner neighbours.
    for size in [6usize, 12] {
        for grid in [
            Grid3::new(1, 1, 2),
            Grid3::new(2, 2, 1),
            Grid3::new(2, 2, 2),
        ] {
            let decomp = Decomposition::with_grid(size, grid);
            let mut world = World::build(decomp, 2, 1, 1, 0);
            world.run(CYCLES).unwrap();

            // Loose check against the serial single-domain solution
            // (different but equally valid summation order).
            let single = lulesh::core::Domain::build(size, 2, 1, 1, 0);
            lulesh::core::serial::run(&single, CYCLES).unwrap();
            let diff = world.max_difference_vs_single(&single);
            assert!(
                diff < 1e-7,
                "size {size} grid {}x{}x{}: lockstep vs serial diff {diff}",
                grid.nx,
                grid.ny,
                grid.nz
            );

            // Bitwise check of every transport against the lockstep world.
            for kind in [TransportKind::Channel, TransportKind::TcpLoopback] {
                let domains = run_threaded(decomp, kind);
                for (r, (a, b)) in world.domains.iter().zip(&domains).enumerate() {
                    assert_eq!(
                        max_field_difference(a, b),
                        0.0,
                        "size {size} grid {}x{}x{} {kind:?} rank {r}: \
                         transport changed the physics",
                        grid.nx,
                        grid.ny,
                        grid.nz
                    );
                }
                assert_eq!(
                    interface_mismatches(&decomp, &domains),
                    0,
                    "size {size} grid {}x{}x{} {kind:?}: interface surfaces diverged",
                    grid.nx,
                    grid.ny,
                    grid.nz
                );
            }
        }
    }
}

#[test]
fn duplicated_interface_nodes_agree_across_transports() {
    // The interface surfaces exist on EVERY sharing rank; after a run they
    // must hold the same bits on each side, whichever wire carried the
    // halo traffic. A face node is shared by 2 ranks, an edge node by 4,
    // a corner node by 8 — the ascending-rank combine makes all copies
    // identical.
    for kind in [TransportKind::Channel, TransportKind::TcpLoopback] {
        for decomp in [
            Decomposition::new(12, 3),
            Decomposition::with_grid(6, Grid3::new(2, 2, 2)),
        ] {
            let domains = run_threaded(decomp, kind);
            assert_eq!(
                interface_mismatches(&decomp, &domains),
                0,
                "{kind:?}: interface nodes diverged"
            );
        }
    }
}

#[test]
fn overlapped_task_ranks_match_lockstep_over_both_transports() {
    // Chain and grid decompositions with the comm/compute-overlapped
    // force exchange; the boundary/interior split must not change the
    // arithmetic on any transport.
    for decomp in [
        Decomposition::new(12, 2),
        Decomposition::with_grid(6, Grid3::new(2, 2, 1)),
    ] {
        let mut world = World::build(decomp, 2, 1, 1, 0);
        world.run(CYCLES).unwrap();
        for kind in [TransportKind::Channel, TransportKind::TcpLoopback] {
            let results = threaded::run(
                decomp,
                sim(),
                &RunPlan {
                    transport: kind,
                    deadline: DEADLINE,
                    exec: RankExec::Tasks {
                        threads: 2,
                        partition: lulesh::task::PartitionPlan::fixed(32, 32),
                    },
                    ..RunPlan::default()
                },
            );
            for (r, (a, res)) in world.domains.iter().zip(results).enumerate() {
                let (b, st) = res.unwrap_or_else(|e| panic!("{kind:?} rank {r}: {e}"));
                assert_eq!(st.cycle, CYCLES);
                assert_eq!(
                    max_field_difference(a, &b),
                    0.0,
                    "{kind:?} rank {r}: overlapped halo exchange changed the physics"
                );
            }
        }
    }
}
