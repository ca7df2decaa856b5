//! Coordinated restart: run the threaded driver under a checkpoint plan,
//! and on a rank failure roll **every** rank back to the newest globally
//! consistent checkpoint wave and rerun. Deterministic stepping makes the
//! recovered trajectory bit-identical to an uninterrupted run — the
//! failure-injection suite asserts final energies to the last bit.
//!
//! [`run_with_recovery`] is the in-process analogue of the
//! `lulesh-multidom --respawn` launcher: the "kill" is a
//! [`FaultPlan::die_at`] entry instead of a dead process, and the
//! "respawn" is a fresh transport mesh instead of a fresh process. Both
//! run the one [`restart`] loop, so each attempt injects the same
//! one-kill-per-incarnation [`FaultPlan::attempt_kill`].

use crate::{threaded, Decomposition, FaultPlan, MdError, ResilPlan, RunPlan, SimArgs};
use lulesh_core::domain::Domain;
use lulesh_core::params::SimState;

/// The outcome of a restarted job: by default, [`run_with_recovery`]'s.
#[derive(Debug)]
pub struct RecoveryReport<T = Vec<Result<(Domain, SimState), MdError>>> {
    /// Outcome of the final (successful or abandoned) attempt; per-rank
    /// results for [`run_with_recovery`].
    pub results: T,
    /// Completed attempts (1 = no failure ever observed).
    pub attempts: usize,
    /// The cycle each restart resumed from, in order.
    pub resumed_from: Vec<u64>,
}

/// The coordinated-restart loop of both restart paths: [`run_with_recovery`]
/// and the `lulesh-multidom --respawn` launcher. Attempt `a` runs
/// `attempt(a, plan_a)`, where `plan_a` is `plan` — which must checkpoint
/// (`plan.resil.ckpt`) — with only [`FaultPlan::attempt_kill`] left in its
/// kill list and the cycle the attempt resumes from; `attempt` returns its
/// outcome and whether it failed. After a failure every one of the `ranks`
/// rolls back to [`resil::latest_consistent_cycle`] (no wave at all means
/// a cold restart) until an attempt succeeds or `max_attempts` have run.
/// The first attempt starts from `plan.resil.resume_cycle`.
pub fn restart<T>(
    plan: &RunPlan,
    ranks: usize,
    max_attempts: usize,
    mut attempt: impl FnMut(usize, &RunPlan) -> (T, bool),
) -> RecoveryReport<T> {
    let ckpt = plan
        .resil
        .ckpt
        .as_ref()
        .expect("a restarted job needs RunPlan.resil.ckpt");
    let max_attempts = max_attempts.max(1);
    let mut resumed_from = Vec::new();
    let mut resume_cycle = plan.resil.resume_cycle;
    for a in 0..max_attempts {
        let attempt_plan = RunPlan {
            faults: FaultPlan {
                die_at: plan
                    .faults
                    .attempt_kill(a, resume_cycle)
                    .into_iter()
                    .collect(),
                ..plan.faults.clone()
            },
            resil: ResilPlan {
                ckpt: Some(ckpt.clone()),
                resume_cycle,
            },
            ..plan.clone()
        };
        let (results, failed) = attempt(a, &attempt_plan);
        if !failed || a + 1 == max_attempts {
            return RecoveryReport {
                results,
                attempts: a + 1,
                resumed_from,
            };
        }
        // Roll back to the newest wave where every rank has a
        // checksum-valid snapshot; a partial wave is never resumed from.
        resume_cycle = resil::latest_consistent_cycle(&ckpt.dir, ranks);
        resumed_from.extend(resume_cycle);
    }
    unreachable!("the final attempt returns")
}

/// Run the decomposed problem under `plan` — which must checkpoint
/// (`plan.resil.ckpt`) — with [`threaded::run`], and when any rank dies
/// (injected via `plan.faults.die_at`, one entry per attempt) [`restart`]
/// every rank until the job completes or `max_attempts` is exhausted.
pub fn run_with_recovery(
    decomp: Decomposition,
    sim: SimArgs,
    plan: &RunPlan,
    max_attempts: usize,
) -> RecoveryReport {
    restart(plan, decomp.ranks(), max_attempts, |_, attempt_plan| {
        let results = threaded::run(decomp, sim, attempt_plan);
        let failed = results.iter().any(|r| matches!(r, Err(MdError::Net(_))));
        (results, failed)
    })
}
