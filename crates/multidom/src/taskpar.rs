//! The full future-work configuration: **task-parallel within each rank,
//! message-passing between ranks** — the "HPX-native multi-node" execution
//! the paper anticipates comparing against MPI+OpenMP.
//!
//! Each rank owns a [`TaskLulesh`] runtime with `threads_per_rank` workers;
//! the halo exchanges run as communication *tasks* injected into the
//! per-iteration graph at the same three points as the serial-rank driver
//! (forces, gradient ghosts, dt allreduce), over any [`parcelnet`]
//! transport.
//!
//! With `overlap` enabled the force exchange stops being a barrier: the
//! boundary node-planes are gathered first and posted to the wire, the
//! receive+combine runs as a continuation while the *interior* gathers are
//! still executing, and only the node update joins the two — comm latency
//! hides behind compute, the HPX parcelport trick. The combine arithmetic
//! is unchanged (ascending-rank sum into a zeroed accumulator on every
//! sharer), so overlapped runs remain
//! **bit-identical** to the lockstep [`World`](crate::World), to
//! [`threaded`](crate::threaded), and to the non-overlapped task driver.

use crate::exchange::{
    halo_exchange_forces, halo_exchange_gradients, halo_exchange_mass, recv_combine_forces,
    send_forces, HaloPlan, ObsCtx,
};
use crate::{build_rank_domain, spawn_ranks, Decomposition, MdError, RankObs, RunPlan, SimArgs};
use lulesh_core::domain::Domain;
use lulesh_core::mesh::MeshShape;
use lulesh_core::params::SimState;
use lulesh_core::types::{LuleshError, Real};
use lulesh_task::{Hook, IterationHooks, OverlapForces, PartitionPlan, TaskLulesh};
use obs::SpanKind;
use parcelnet::{ParcelError, RankNet};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Run the decomposed problem with one `TaskLulesh` runtime per rank
/// (`threads_per_rank` workers each, partitioned by `partition`) and
/// halo-exchange tasks between them; `overlap` turns on the
/// comm/compute-overlapped force exchange. Returns every rank's outcome
/// in rank order (bottom slab first); [`crate::fold`] turns them into one
/// result.
///
/// Honours `plan`'s transport, deadline, faults and live telemetry;
/// tracing and checkpointing are not implemented here, and asking for
/// them panics.
pub fn run(
    decomp: Decomposition,
    sim: SimArgs,
    threads_per_rank: usize,
    partition: PartitionPlan,
    overlap: bool,
    plan: &RunPlan,
) -> Vec<Result<(Arc<Domain>, SimState), MdError>> {
    assert!(
        plan.trace.is_none(),
        "taskpar does not implement RunPlan.trace"
    );
    assert!(
        plan.resil.ckpt.is_none() && plan.resil.resume_cycle.is_none(),
        "taskpar does not implement RunPlan.resil"
    );
    spawn_ranks(decomp, plan, "multidom-taskpar", |shape, net| {
        rank_main(shape, net, sim, threads_per_rank, partition, overlap, plan)
    })
}

/// One halo exchange, as the communication tasks call it.
type Exchange = fn(&Domain, &HaloPlan, &RankNet, ObsCtx) -> Result<(), ParcelError>;

/// Stands in for the transport failure a step ended on; the rank returns
/// the `ParcelError` stored in `comm_err` instead.
const ABANDONED: LuleshError = LuleshError::VolumeError;

fn rank_main(
    shape: MeshShape,
    net: RankNet,
    sim: SimArgs,
    threads_per_rank: usize,
    partition: PartitionPlan,
    overlap: bool,
    plan: &RunPlan,
) -> Result<(Arc<Domain>, SimState), MdError> {
    let rank = net.rank;
    let live = Arc::new(RankObs::attach(plan, &net));
    let d = Arc::new(build_rank_domain(shape, rank, &sim, &plan.faults));
    let halo = Arc::new(HaloPlan::for_net(shape, &net));
    let net = Arc::new(net);

    // One-time nodal mass exchange (control thread; the runtime is idle).
    halo_exchange_mass(&d, &halo, &net, None)?;

    // The exchange hooks run as tasks inside the iteration graph. A
    // transport failure inside a hook cannot unwind through the `Fn()`
    // signature, so it lands in `comm_err`; every later hook becomes a
    // no-op and the reduce_dt below aborts the iteration loop, after which
    // the rank returns `Err(Net)` and drops its links.
    let comm_err: Arc<Mutex<Option<ParcelError>>> = Arc::new(Mutex::new(None));
    let hook = |label: &'static str, exchange: Exchange| -> Hook {
        let (d, net, halo) = (Arc::clone(&d), Arc::clone(&net), Arc::clone(&halo));
        let (comm_err, live) = (Arc::clone(&comm_err), Arc::clone(&live));
        Arc::new(move || {
            if comm_err.lock().is_some() {
                return;
            }
            let sent = live.timed(label, SpanKind::Halo, || exchange(&d, &halo, &net, None));
            if let Err(e) = sent {
                *comm_err.lock() = Some(e);
            }
        })
    };
    let mut hooks = IterationHooks {
        after_gradients: Some(hook("halo-gradients", halo_exchange_gradients)),
        ..Default::default()
    };
    if overlap && net.ranks > 1 {
        // The boundary node set as merged contiguous runs — on a 3-D grid
        // this is the union of every COMM face/edge/corner surface.
        hooks.overlap_forces = Some(OverlapForces {
            boundary: halo.boundary_runs().to_vec(),
            send: hook("send-forces", send_forces),
            recv_combine: hook("recv-forces", recv_combine_forces),
        });
    } else {
        hooks.after_forces = Some(hook("halo-forces", halo_exchange_forces));
    }

    // dt allreduce through rank 0, on the control thread each iteration.
    // Simulation errors (and on telemetry steps the step summary) ride
    // along so every rank aborts together; a transport error — here, an
    // injected death or one stored by a hook — aborts the loop with a
    // placeholder that `comm_err` overrides below. Step time runs from one
    // reduce to the next: it covers the whole task graph, including an
    // injected stall.
    let completed = AtomicU64::new(0);
    let last_mark = Mutex::new(live.mark());
    let reduce_dt = |c: Real, h: Real, err: Option<LuleshError>| {
        let cycle = completed.fetch_add(1, Ordering::Relaxed);
        if let Err(e) = plan.faults.inject(rank, cycle) {
            *comm_err.lock() = Some(e);
        }
        if comm_err.lock().is_some() {
            return Err(ABANDONED);
        }
        let window = live.mark().and_then(|now| last_mark.lock().replace(now));
        match live.allreduce_dt(&net, cycle + 1, window, c, h, err) {
            Ok((_, _, Some(e))) => Err(e),
            Ok((gc, gh, None)) => Ok((gc, gh)),
            Err(pe) => {
                *comm_err.lock() = Some(pe);
                Err(ABANDONED)
            }
        }
    };

    let result = TaskLulesh::new(threads_per_rank).run_with_hooks(
        &d,
        partition,
        sim.max_cycles,
        &hooks,
        reduce_dt,
    );
    let out = match (*comm_err.lock(), result) {
        (Some(pe), _) => Err(MdError::Net(pe)),
        (None, Err(e)) => Err(MdError::Sim(e)),
        (None, Ok(state)) => net
            .close()
            .map(|()| (Arc::clone(&d), state))
            .map_err(MdError::Net),
    };
    live.finish(&out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fold, World};

    #[test]
    fn taskpar_matches_lockstep_bitwise() {
        let decomp = Decomposition::new(8, 2);
        let mut world = World::build(decomp, 3, 1, 1, 0);
        let st_lock = world.run(20).unwrap();

        let (domains, st) = fold(run(
            decomp,
            SimArgs::new(3, 1, 1, 0, 20),
            2,
            PartitionPlan::fixed(32, 32),
            false,
            &RunPlan::default(),
        ))
        .unwrap();
        assert_eq!(st_lock.cycle, st.cycle);
        assert_eq!(st_lock.time, st.time);
        assert_eq!(st_lock.dtcourant, st.dtcourant);
        for (r, (a, b)) in world.domains.iter().zip(&domains).enumerate() {
            assert_eq!(
                lulesh_core::validate::max_field_difference(a, b),
                0.0,
                "rank {r}: task-parallel ranks must match the lockstep world bit-for-bit"
            );
        }
    }

    #[test]
    fn taskpar_three_ranks_single_worker_each() {
        let decomp = Decomposition::new(6, 3);
        let (domains, st) = fold(run(
            decomp,
            SimArgs::new(2, 1, 1, 0, 12),
            1,
            PartitionPlan::fixed(16, 16),
            false,
            &RunPlan::default(),
        ))
        .unwrap();
        assert_eq!(domains.len(), 3);
        assert_eq!(st.cycle, 12);
        let mut world = World::build(decomp, 2, 1, 1, 0);
        world.run(12).unwrap();
        for (a, b) in world.domains.iter().zip(&domains) {
            assert_eq!(lulesh_core::validate::max_field_difference(a, b), 0.0);
        }
    }

    #[test]
    fn taskpar_single_rank_is_plain_task_port() {
        let (domains, st) = fold(run(
            Decomposition::new(6, 1),
            SimArgs::new(2, 1, 1, 0, 10),
            2,
            PartitionPlan::fixed(32, 32),
            false,
            &RunPlan::default(),
        ))
        .unwrap();
        let single = Arc::new(lulesh_core::Domain::build(6, 2, 1, 1, 0));
        let plain = TaskLulesh::new(2);
        let st_p = plain
            .run(&single, PartitionPlan::fixed(32, 32), 10)
            .unwrap();
        assert_eq!(st.cycle, st_p.cycle);
        assert_eq!(
            lulesh_core::validate::max_field_difference(&domains[0], &single),
            0.0
        );
    }

    #[test]
    fn grid_taskpar_matches_lockstep_bitwise_with_overlap() {
        // 2×2×1 rank grid with comm/compute overlap: the boundary runs
        // cover two face planes plus the shared edge; scheduling must not
        // change the ascending-rank combine arithmetic. Also a regression
        // test for the fused acceleration BC: ranks off the global x=0/y=0
        // planes must not zero accelerations on their interface planes.
        let decomp = Decomposition::with_grid(4, crate::Grid3::new(2, 2, 1));
        let mut world = World::build(decomp, 2, 1, 1, 0);
        world.run(10).unwrap();
        let results = run(
            decomp,
            SimArgs::new(2, 1, 1, 0, 10),
            2,
            PartitionPlan::fixed(16, 16),
            true,
            &RunPlan::default(),
        );
        for (r, (a, res)) in world.domains.iter().zip(results).enumerate() {
            let (b, st) = res.unwrap_or_else(|e| panic!("rank {r}: {e}"));
            assert_eq!(st.cycle, 10);
            assert_eq!(
                lulesh_core::validate::max_field_difference(a, &b),
                0.0,
                "rank {r}: grid overlap must not change physics"
            );
        }
    }

    #[test]
    fn taskpar_live_metrics_do_not_change_physics_and_emit_jsonl() {
        use obs::live::{CollectSink, LiveConfig, LiveSink};
        let decomp = Decomposition::new(6, 2);
        let mut world = World::build(decomp, 2, 1, 1, 0);
        world.run(8).unwrap();

        let sink = Arc::new(CollectSink::new());
        let live = Some(LiveConfig {
            period: 2,
            sink: Arc::clone(&sink) as Arc<dyn LiveSink>,
            table: false,
        });
        let results = run(
            decomp,
            SimArgs::new(2, 1, 1, 0, 8),
            2,
            PartitionPlan::fixed(16, 16),
            false,
            &RunPlan {
                live,
                ..RunPlan::default()
            },
        );
        for (r, (a, res)) in world.domains.iter().zip(results).enumerate() {
            let (b, st) = res.unwrap_or_else(|e| panic!("rank {r}: {e}"));
            assert_eq!(st.cycle, 8);
            assert_eq!(
                lulesh_core::validate::max_field_difference(a, &b),
                0.0,
                "rank {r}: live sampling must not change physics"
            );
        }
        let lines = sink.lines();
        assert_eq!(lines.len(), 4, "period 2 over 8 cycles");
        for l in &lines {
            let v = obs::jsonlint::parse(l).expect("live line must be valid JSON");
            assert_eq!(
                v.get("per_rank").and_then(|p| p.arr()).map(|x| x.len()),
                Some(2)
            );
        }
    }

    #[test]
    fn overlapped_forces_stay_bit_identical() {
        // The overlap changes scheduling, not arithmetic: identical results
        // with single- and multi-worker ranks, including on a deliberately
        // deadlock-prone configuration (1 worker per rank: the send task
        // must never wait on the recv).
        let decomp = Decomposition::new(6, 3);
        let mut world = World::build(decomp, 2, 1, 1, 0);
        world.run(12).unwrap();
        for workers in [1usize, 2] {
            let results = run(
                decomp,
                SimArgs::new(2, 1, 1, 0, 12),
                workers,
                PartitionPlan::fixed(16, 16),
                true,
                &RunPlan::default(),
            );
            for (r, (a, res)) in world.domains.iter().zip(results).enumerate() {
                let (b, st) = res.unwrap_or_else(|e| panic!("workers {workers} rank {r}: {e}"));
                assert_eq!(st.cycle, 12);
                assert_eq!(
                    lulesh_core::validate::max_field_difference(a, &b),
                    0.0,
                    "workers {workers} rank {r}: overlap must not change physics"
                );
            }
        }
    }
}
