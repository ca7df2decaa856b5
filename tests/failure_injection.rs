//! Failure injection: the reference aborts on two conditions (negative
//! element volumes, runaway artificial viscosity). Every driver — serial,
//! fork-join, many-task, multi-domain — must detect the same conditions
//! and surface them as typed errors instead of corrupting state or
//! hanging.

use lulesh::core::{serial, Domain, LuleshError};
use lulesh::omp::OmpLulesh;
use lulesh::task::{PartitionPlan, TaskLulesh};
use std::sync::Arc;

/// Corrupt one element's relative volume so the EOS bounds check trips on
/// the first iteration.
fn poison_volume(d: &Domain) {
    d.set_v(d.num_elem() / 2, -0.25);
}

/// Lower the q abort threshold below any value the blast produces, so the
/// q-stop check trips once viscosity develops.
fn hair_trigger_qstop(d: &mut Domain) {
    d.params.qstop = 1e-30;
}

#[test]
fn serial_detects_poisoned_volume() {
    let d = Domain::build(6, 2, 1, 1, 0);
    poison_volume(&d);
    assert_eq!(serial::run(&d, 5), Err(LuleshError::VolumeError));
}

/// The fork-join runners: the shared plan, and the OpenMP reference's.
fn omp_runners(threads: usize) -> [OmpLulesh; 2] {
    [OmpLulesh::new(threads), OmpLulesh::new(threads).reference()]
}

#[test]
fn omp_detects_poisoned_volume() {
    for mut omp in omp_runners(3) {
        let d = Domain::build(6, 2, 1, 1, 0);
        poison_volume(&d);
        assert_eq!(omp.run(&d, 5), Err(LuleshError::VolumeError));
    }
}

#[test]
fn task_detects_poisoned_volume() {
    let d = Arc::new(Domain::build(6, 2, 1, 1, 0));
    poison_volume(&d);
    let task = TaskLulesh::new(3);
    assert_eq!(
        task.run(&d, PartitionPlan::fixed(16, 16), 5),
        Err(LuleshError::VolumeError)
    );
}

#[test]
fn multidom_detects_poisoned_volume_on_any_rank() {
    // Poison an element on the *upper* rank: the error must surface from
    // the lockstep world all the same.
    let mut world = multidom::World::build(multidom::Decomposition::new(6, 2), 2, 1, 1, 0);
    let upper = &world.domains[1];
    upper.set_v(upper.num_elem() / 2, -1.0);
    assert_eq!(world.run(5), Err(LuleshError::VolumeError));
}

#[test]
fn serial_detects_qstop() {
    let mut d = Domain::build(6, 2, 1, 1, 0);
    hair_trigger_qstop(&mut d);
    let r = serial::run(&d, 50);
    assert_eq!(r, Err(LuleshError::QStopError));
}

#[test]
fn omp_detects_qstop() {
    for mut omp in omp_runners(2) {
        let mut d = Domain::build(6, 2, 1, 1, 0);
        hair_trigger_qstop(&mut d);
        assert_eq!(omp.run(&d, 50), Err(LuleshError::QStopError));
    }
}

#[test]
fn task_detects_qstop() {
    let mut d = Domain::build(6, 2, 1, 1, 0);
    hair_trigger_qstop(&mut d);
    let d = Arc::new(d);
    let task = TaskLulesh::new(2);
    assert_eq!(
        task.run(&d, PartitionPlan::fixed(32, 32), 50),
        Err(LuleshError::QStopError)
    );
}

#[test]
fn all_drivers_fail_on_the_same_cycle() {
    // The q-stop condition is state-dependent; since all drivers compute
    // identical states, they must fail at the same iteration.
    let cycle_of = |r: Result<lulesh::core::SimState, LuleshError>| match r {
        Err(_) => None::<u64>,
        Ok(s) => Some(s.cycle),
    };
    let mut ds = Domain::build(6, 3, 1, 1, 0);
    hair_trigger_qstop(&mut ds);
    let serial_res = serial::run(&ds, 50);
    assert!(serial_res.is_err());
    assert!(cycle_of(serial_res).is_none());

    // Find the exact failing cycle by bisection-free replay: run k cycles
    // at a time until the error appears.
    let failing_cycle = {
        let mut k = 0;
        loop {
            k += 1;
            let mut d = Domain::build(6, 3, 1, 1, 0);
            hair_trigger_qstop(&mut d);
            match serial::run(&d, k) {
                Ok(_) => continue,
                Err(_) => break k,
            }
        }
    };

    // One cycle earlier must succeed in every driver; the failing cycle
    // must fail in every driver.
    for cycles in [failing_cycle - 1, failing_cycle] {
        let expect_err = cycles == failing_cycle;

        let mut d = Domain::build(6, 3, 1, 1, 0);
        hair_trigger_qstop(&mut d);
        assert_eq!(
            serial::run(&d, cycles).is_err(),
            expect_err,
            "serial at {cycles}"
        );

        for mut omp in omp_runners(2) {
            let mut d = Domain::build(6, 3, 1, 1, 0);
            hair_trigger_qstop(&mut d);
            assert_eq!(omp.run(&d, cycles).is_err(), expect_err, "omp at {cycles}");
        }

        let mut d = Domain::build(6, 3, 1, 1, 0);
        hair_trigger_qstop(&mut d);
        let d = Arc::new(d);
        let task = TaskLulesh::new(2);
        assert_eq!(
            task.run(&d, PartitionPlan::fixed(24, 24), cycles).is_err(),
            expect_err,
            "task at {cycles}"
        );
    }
}

#[test]
fn error_is_reported_not_panicked() {
    // A poisoned run must return Err — never panic a worker thread or hang.
    let d = Arc::new(Domain::build(5, 2, 1, 1, 0));
    poison_volume(&d);
    let task = TaskLulesh::new(4);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        task.run(&d, PartitionPlan::fixed(8, 8), 3)
    }));
    assert!(matches!(result, Ok(Err(LuleshError::VolumeError))));
}

#[test]
fn lockstep_multidom_detects_error_on_upper_rank() {
    let decomp = multidom::Decomposition::new(6, 3);
    let mut world = multidom::World::build(decomp, 2, 1, 1, 0);
    world.domains[2].set_v(0, -1.0);
    assert_eq!(world.run(5), Err(LuleshError::VolumeError));
}

#[test]
fn threaded_multidom_aborts_cleanly_across_ranks() {
    // Hair-trigger qstop on every rank: the error develops mid-run on the
    // rank holding the blast (rank 0) while the others are healthy — they
    // must all unblock through the error-carrying dt allreduce and return
    // the same Err, with no panic and no hang.
    let r = multidom::fold(multidom::threaded::run(
        multidom::Decomposition::new(6, 3),
        qstop_sim(50),
        &RunPlan::default(),
    ));
    assert_eq!(r.err(), Some(LuleshError::QStopError));
}

#[test]
fn task_rank_multidom_aborts_cleanly_across_ranks() {
    let r = multidom::fold(multidom::threaded::run(
        multidom::Decomposition::new(6, 2),
        qstop_sim(50),
        &task_ranks(24),
    ));
    assert_eq!(r.err(), Some(LuleshError::QStopError));
}

// ---------------------------------------------------------------------------
// Multi-domain fault matrix over real transports: a fault on ONE rank must
// surface as the SAME typed error on EVERY rank — for every fault ×
// transport × rank compute engine — without deadlock (bounded by the recv
// deadline). Sim errors ride the dt allreduce; a killed rank cascades a
// typed `ParcelError` to every survivor. One table, one runner; each test
// below runs one fault's row.
// ---------------------------------------------------------------------------

use multidom::TransportKind::{self, Channel, TcpLoopback};
use multidom::{
    threaded, Decomposition, FaultPlan, MdError, RankExec, ResilPlan, RunPlan, SimArgs,
};
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_secs(5);

/// A sim whose q abort threshold trips once viscosity develops.
fn qstop_sim(max_cycles: u64) -> SimArgs {
    SimArgs {
        params: lulesh::core::Params {
            qstop: 1e-30,
            ..Default::default()
        },
        ..SimArgs::new(2, 1, 1, 0, max_cycles)
    }
}

/// How each rank computes inside a fault cell.
#[derive(Debug, Clone, Copy)]
enum Compute {
    /// [`threaded::run`]: the serial kernels on one thread per rank.
    Serial,
    /// [`RankExec::Tasks`]: a two-worker task graph per rank.
    Task,
}

/// Two-worker task ranks with `part`-sized chunks; everything else off.
fn task_ranks(part: usize) -> RunPlan {
    RunPlan {
        exec: RankExec::Tasks {
            threads: 2,
            partition: PartitionPlan::fixed(part, part),
        },
        ..RunPlan::default()
    }
}

/// What every rank of a cell must report.
#[derive(Debug)]
enum Expect {
    Sim(LuleshError),
    Net,
}

/// One row of the matrix: a fault, the run it strikes, and the outcome
/// every rank must report on every transport it can exist on.
struct FaultRow {
    name: &'static str,
    sim: SimArgs,
    faults: FaultPlan,
    deadline: Duration,
    expect: Expect,
    /// Wall-clock bound per cell: the deadline must bound the hang.
    bound: Duration,
    /// A transport the fault cannot exist on, and why.
    skip: Option<(TransportKind, &'static str)>,
}

fn fault_table() -> Vec<FaultRow> {
    let die = |die_at: Vec<(usize, u64)>| FaultPlan {
        die_at,
        ..FaultPlan::NONE
    };
    vec![
        FaultRow {
            name: "poison_volume",
            sim: SimArgs::new(2, 1, 1, 0, 5),
            faults: FaultPlan {
                poison_volume: Some(1),
                ..FaultPlan::NONE
            },
            deadline: DEADLINE,
            expect: Expect::Sim(LuleshError::VolumeError),
            bound: 6 * DEADLINE,
            skip: None,
        },
        FaultRow {
            name: "qstop",
            sim: qstop_sim(50),
            faults: FaultPlan::NONE,
            deadline: DEADLINE,
            expect: Expect::Sim(LuleshError::QStopError),
            bound: 6 * DEADLINE,
            skip: None,
        },
        // Rank 1 (the middle rank, linked to both neighbours) abandons the
        // protocol at cycle 3.
        FaultRow {
            name: "die_at",
            sim: SimArgs::new(2, 1, 1, 0, 50),
            faults: die(vec![(1, 3)]),
            deadline: DEADLINE,
            expect: Expect::Net,
            bound: 3 * DEADLINE,
            skip: None,
        },
        // Every `die_at` entry counts, not only a rank's first: the entry
        // for cycle 10 is never reached, the one for cycle 3 is.
        FaultRow {
            name: "die_at_second_entry",
            sim: SimArgs::new(2, 1, 1, 0, 5),
            faults: die(vec![(1, 10), (1, 3)]),
            deadline: DEADLINE,
            expect: Expect::Net,
            bound: 3 * DEADLINE,
            skip: None,
        },
        // Rank 1 is killed before it dials the TCP bootstrap; the deadline
        // bounds the handshake too. Its waits can serialise (root accepts
        // ranks one at a time, then the peer mesh dials/accepts), but each
        // is bounded by the deadline.
        FaultRow {
            name: "die_at_handshake",
            sim: SimArgs::new(2, 1, 1, 0, 5),
            faults: FaultPlan {
                die_at_handshake: Some(1),
                ..FaultPlan::NONE
            },
            deadline: Duration::from_millis(1500),
            expect: Expect::Net,
            bound: 8 * Duration::from_millis(1500),
            skip: Some((
                Channel,
                "the in-process channel mesh has no handshake to kill",
            )),
        },
    ]
}

/// Run every cell of the row named `name`: both transports (minus its
/// skip) × both compute engines, three ζ ranks each.
fn check_fault_row(name: &str) {
    let row = fault_table()
        .into_iter()
        .find(|row| row.name == name)
        .expect("fault row");
    for kind in [Channel, TcpLoopback] {
        if let Some((_, why)) = row.skip.filter(|&(k, _)| k == kind) {
            eprintln!("skip: {name} × {kind:?}: {why}");
            continue;
        }
        let plan = RunPlan {
            transport: kind,
            deadline: row.deadline,
            faults: row.faults.clone(),
            ..RunPlan::default()
        };
        for compute in [Compute::Serial, Compute::Task] {
            let decomp = Decomposition::new(6, 3);
            let t0 = Instant::now();
            let results: Vec<Result<(), MdError>> = match compute {
                Compute::Serial => threaded::run(decomp, row.sim, &plan)
                    .into_iter()
                    .map(|r| r.map(drop))
                    .collect(),
                Compute::Task => threaded::run(
                    decomp,
                    row.sim,
                    &RunPlan {
                        exec: task_ranks(16).exec,
                        ..plan.clone()
                    },
                )
                .into_iter()
                .map(|r| r.map(drop))
                .collect(),
            };
            let cell = format!("{name} × {kind:?} × {compute:?}");
            assert_eq!(results.len(), 3, "{cell}");
            for (rank, r) in results.iter().enumerate() {
                let ok = match (&row.expect, r) {
                    (Expect::Sim(want), Err(MdError::Sim(got))) => want == got,
                    (Expect::Net, Err(MdError::Net(_))) => true,
                    _ => false,
                };
                assert!(
                    ok,
                    "{cell} rank {rank}: expected {:?}, got {r:?}",
                    row.expect
                );
            }
            assert!(
                t0.elapsed() < row.bound,
                "{cell}: took {:?} — the deadline did not bound the hang",
                t0.elapsed()
            );
        }
    }
}

#[test]
fn poisoned_rank_fails_every_rank_over_both_transports() {
    check_fault_row("poison_volume");
}

#[test]
fn hair_trigger_qstop_fails_every_rank_over_both_transports() {
    check_fault_row("qstop");
}

#[test]
fn killed_rank_surfaces_typed_parcel_error_on_every_survivor() {
    check_fault_row("die_at");
}

#[test]
fn every_die_at_entry_kills_its_rank_on_both_compute_engines() {
    check_fault_row("die_at_second_entry");
}

#[test]
fn rank_killed_at_tcp_handshake_times_out_on_every_survivor() {
    check_fault_row("die_at_handshake");
}

// ---------------------------------------------------------------------------
// Checkpoint/restart: a killed rank is "respawned" (fresh mesh, every rank
// rolled back to the newest globally consistent checkpoint wave) and the
// job completes with final state and fields BIT-IDENTICAL to a run that was
// never interrupted — over both transports.
// ---------------------------------------------------------------------------

/// Checkpoint every `period` cycles into `dir`, starting fresh.
fn ckpt_plan(dir: std::path::PathBuf, period: u64) -> ResilPlan {
    ResilPlan {
        ckpt: Some(resil::CkptConfig::new(dir, period)),
        resume_cycle: None,
    }
}

#[test]
fn killed_rank_recovers_from_checkpoints_bit_identically() {
    let decomp = Decomposition::new(6, 3);
    let sim = SimArgs::new(2, 1, 1, 0, 30);
    for kind in [Channel, TcpLoopback] {
        let dir =
            std::env::temp_dir().join(format!("resil-recover-{kind:?}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // The uninterrupted reference run.
        let clean =
            multidom::threaded::run_transport(decomp, kind, DEADLINE, sim, None, FaultPlan::NONE);
        // Kill rank 1 after cycle 17; checkpoints land every 5 cycles, so
        // the newest globally consistent wave is cycle 15.
        let report = multidom::recovery::run_with_recovery(
            decomp,
            sim,
            &RunPlan {
                transport: kind,
                deadline: DEADLINE,
                faults: FaultPlan {
                    die_at: vec![(1, 17)],
                    ..FaultPlan::NONE
                },
                resil: ckpt_plan(dir.clone(), 5),
                ..RunPlan::default()
            },
            3,
        );
        assert_eq!(
            report.attempts, 2,
            "{kind:?}: one death, one successful restart"
        );
        assert_eq!(
            report.resumed_from,
            vec![15],
            "{kind:?}: must roll back to the newest complete wave"
        );
        for (rank, (c, r)) in clean.into_iter().zip(report.results).enumerate() {
            let (cd, cs) = c.unwrap_or_else(|e| panic!("{kind:?} clean rank {rank}: {e}"));
            let (rd, rs) = r.unwrap_or_else(|e| panic!("{kind:?} recovered rank {rank}: {e}"));
            assert_eq!(cs, rs, "{kind:?} rank {rank}: final state must match");
            assert_eq!(
                lulesh::core::validate::max_field_difference(&cd, &rd),
                0.0,
                "{kind:?} rank {rank}: recovered fields must be bit-identical"
            );
            assert_eq!(
                cd.e(0).to_bits(),
                rd.e(0).to_bits(),
                "{kind:?} rank {rank}: origin energy must be bit-identical"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn killed_task_rank_recovers_from_checkpoints_bit_identically() {
    // The same kill and rollback as above on two-worker task ranks: the
    // checkpoint writer and the restore belong to the one rank loop, so
    // task ranks resume from the cycle-15 wave and finish bit-identical
    // to an uninterrupted task-rank run.
    let decomp = Decomposition::new(6, 3);
    let sim = SimArgs::new(2, 1, 1, 0, 30);
    for kind in [Channel, TcpLoopback] {
        let dir = std::env::temp_dir().join(format!(
            "resil-recover-tasks-{kind:?}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = RunPlan {
            transport: kind,
            deadline: DEADLINE,
            ..task_ranks(16)
        };
        let clean = threaded::run(decomp, sim, &plan);
        let report = multidom::recovery::run_with_recovery(
            decomp,
            sim,
            &RunPlan {
                faults: FaultPlan {
                    die_at: vec![(1, 17)],
                    ..FaultPlan::NONE
                },
                resil: ckpt_plan(dir.clone(), 5),
                ..plan
            },
            3,
        );
        assert_eq!(report.attempts, 2, "{kind:?}: one death, one restart");
        assert_eq!(report.resumed_from, vec![15], "{kind:?}");
        for (rank, (c, r)) in clean.into_iter().zip(report.results).enumerate() {
            let (cd, cs) = c.unwrap_or_else(|e| panic!("{kind:?} clean rank {rank}: {e}"));
            let (rd, rs) = r.unwrap_or_else(|e| panic!("{kind:?} recovered rank {rank}: {e}"));
            assert_eq!(cs, rs, "{kind:?} rank {rank}: final state must match");
            assert_eq!(
                lulesh::core::validate::max_field_difference(&cd, &rd),
                0.0,
                "{kind:?} rank {rank}: recovered fields must be bit-identical"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn recovery_without_any_checkpoint_cold_restarts() {
    // Death before the second checkpoint wave exists is survivable too:
    // the restart simply begins from scratch (cycle-0 wave) and still
    // finishes with the right cycle count.
    let decomp = Decomposition::new(6, 2);
    let sim = SimArgs::new(2, 1, 1, 0, 12);
    let dir = std::env::temp_dir().join(format!("resil-coldstart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let report = multidom::recovery::run_with_recovery(
        decomp,
        sim,
        &RunPlan {
            deadline: DEADLINE,
            faults: FaultPlan {
                die_at: vec![(1, 3)],
                ..FaultPlan::NONE
            },
            resil: ckpt_plan(dir.clone(), 100),
            ..RunPlan::default()
        },
        3,
    );
    assert_eq!(report.attempts, 2);
    assert_eq!(report.resumed_from, vec![0], "only the cycle-0 wave exists");
    for r in &report.results {
        assert_eq!(r.as_ref().map(|(_, s)| s.cycle).ok(), Some(12));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unrecoverable_job_reports_the_failure_after_max_attempts() {
    // More kills than attempts: the report must surface the Net error
    // honestly instead of pretending the job finished.
    let decomp = Decomposition::new(6, 2);
    let sim = SimArgs::new(2, 1, 1, 0, 40);
    let dir = std::env::temp_dir().join(format!("resil-exhaust-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let report = multidom::recovery::run_with_recovery(
        decomp,
        sim,
        &RunPlan {
            deadline: DEADLINE,
            faults: FaultPlan {
                die_at: vec![(1, 10), (1, 20)],
                ..FaultPlan::NONE
            },
            resil: ckpt_plan(dir.clone(), 4),
            ..RunPlan::default()
        },
        2,
    );
    assert_eq!(report.attempts, 2);
    assert!(
        report
            .results
            .iter()
            .any(|r| matches!(r, Err(MdError::Net(_)))),
        "the second kill lands after the attempt budget is spent"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
