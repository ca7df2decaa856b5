//! Coordinated restart: run the threaded driver under a checkpoint plan,
//! and on a rank failure roll **every** rank back to the newest globally
//! consistent checkpoint wave and rerun. Deterministic stepping makes the
//! recovered trajectory bit-identical to an uninterrupted run — the
//! failure-injection suite asserts final energies to the last bit.
//!
//! This is the in-process analogue of the `lulesh-multidom --respawn`
//! launcher loop: the "kill" is a [`FaultPlan::die_at`] entry instead of a
//! dead process, and the "respawn" is a fresh transport mesh instead of a
//! fresh process. One `die_at` entry is consumed per attempt, mirroring a
//! real fleet where each incarnation of the job can fail once.

use crate::{threaded, Decomposition, FaultPlan, MdError, ResilPlan, RunPlan, SimArgs};
use lulesh_core::domain::Domain;
use lulesh_core::params::SimState;

/// The outcome of a [`run_with_recovery`] job.
#[derive(Debug)]
pub struct RecoveryReport {
    /// Per-rank results of the final (successful or abandoned) attempt.
    pub results: Vec<Result<(Domain, SimState), MdError>>,
    /// Completed attempts (1 = no failure ever observed).
    pub attempts: usize,
    /// The cycle each restart resumed from, in order.
    pub resumed_from: Vec<u64>,
}

/// Run the decomposed problem under `plan` — which must checkpoint
/// (`plan.resil.ckpt`) — and when any rank dies (injected via
/// `plan.faults.die_at`, one entry per attempt), restart every rank from
/// [`resil::latest_consistent_cycle`] until the job completes or
/// `max_attempts` is exhausted. The first attempt starts from
/// `plan.resil.resume_cycle`.
pub fn run_with_recovery(
    decomp: Decomposition,
    sim: SimArgs,
    plan: &RunPlan,
    max_attempts: usize,
) -> RecoveryReport {
    let ckpt = plan
        .resil
        .ckpt
        .as_ref()
        .expect("run_with_recovery needs RunPlan.resil.ckpt");
    let mut resumed_from = Vec::new();
    let mut resume_cycle = plan.resil.resume_cycle;
    for attempt in 0..max_attempts.max(1) {
        // Attempt `a` injects only the a-th kill: each incarnation of the
        // job dies at most once, like a real re-launched fleet. Kills at
        // or before the resume point are unreachable replays — the
        // launcher equivalent filters them the same way.
        let attempt_plan = RunPlan {
            faults: FaultPlan {
                die_at: plan
                    .faults
                    .die_at
                    .get(attempt)
                    .filter(|&&(_, c)| resume_cycle.is_none_or(|rc| c > rc))
                    .into_iter()
                    .copied()
                    .collect(),
                ..plan.faults.clone()
            },
            resil: ResilPlan {
                ckpt: Some(ckpt.clone()),
                resume_cycle,
            },
            ..plan.clone()
        };
        let results = threaded::run(decomp, sim, &attempt_plan);
        let failed = results.iter().any(|r| matches!(r, Err(MdError::Net(_))));
        if !failed || attempt + 1 == max_attempts.max(1) {
            return RecoveryReport {
                results,
                attempts: attempt + 1,
                resumed_from,
            };
        }
        // Roll back to the newest wave where every rank has a
        // checksum-valid snapshot; a partial wave is never resumed from.
        // No wave at all means restart from scratch.
        resume_cycle = resil::latest_consistent_cycle(&ckpt.dir, decomp.ranks());
        if let Some(c) = resume_cycle {
            resumed_from.push(c);
        }
    }
    unreachable!("loop returns on success or final attempt")
}
