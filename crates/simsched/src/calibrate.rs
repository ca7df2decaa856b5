//! Cost-model calibration: walk `StepPlan::reference` serially on a
//! mid-blast state, time every loop, and credit each loop's time to the
//! coefficient that prices it ([`CostModel::coefficient`]).
//!
//! Run via `cargo run --release -p lulesh-bench -- calibrate`. Use a
//! release build — debug-build coefficients are ~20× larger and would skew
//! the kernel *ratios* (bounds checks hit the cheap kernels hardest).

use crate::costmodel::CostModel;
use lulesh_core::domain::Domain;
use lulesh_core::params::SimState;
use lulesh_core::plan::{PlanShape, StepPlan, StepScratch};
use lulesh_core::timestep::time_increment;
use parutil::Chunk;
use std::time::Instant;

/// Measure all kernel coefficients at problem size `size`, after running
/// `warmup` iterations to reach a representative mid-blast state, averaging
/// over `iters` instrumented iterations.
pub fn measure(size: usize, warmup: u64, iters: u64) -> CostModel {
    let d = Domain::build(size, 11, 1, 1, 0);
    let plan = StepPlan::reference(PlanShape::of(&d));
    let sc = StepScratch::new(&plan, 1);
    let mut state = SimState::new(d.initial_dt());
    // Per coefficient: the ns its loops took, and the items they covered,
    // each loop's divided by the loops that split the coefficient.
    let mut ns = CostModel::default();
    ns.coefficients_mut().into_iter().for_each(|c| *c = 0.0);
    let mut items = ns;
    for cycle in 0..warmup + iters {
        time_increment(&mut state, &d.params);
        let dt = state.deltatime;
        sc.begin_iteration(dt);
        for (chain, stage) in plan.stages() {
            let whole = Chunk {
                begin: 0,
                end: plan.shape.len(chain.space),
            };
            for &k in stage {
                let t0 = Instant::now();
                // SAFETY: this thread runs every kernel of the plan, in plan
                // order, each over its chain's whole space.
                unsafe { k.run(&d, &sc, sc.local(0), whole, dt) };
                if cycle >= warmup {
                    *ns.coefficient(k).0 += t0.elapsed().as_nanos() as f64;
                    let (n, split) = items.coefficient(k);
                    *n += whole.len() as f64 / split;
                }
            }
        }
        assert_eq!(sc.error(), None, "the calibration run must stay stable");
        (state.dtcourant, state.dthydro) = sc.dt_mins();
    }
    let items = items.coefficients_mut().map(|n| *n);
    for (c, n) in ns.coefficients_mut().into_iter().zip(items) {
        *c /= n;
    }
    ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_produces_positive_coefficients() {
        // Tiny problem, debug build: absolute values are meaningless here;
        // just verify the machinery runs and yields sane numbers. Every
        // coefficient must be credited: a reference loop missing from the
        // coefficient map leaves one at 0 / 0.
        let mut m = measure(6, 2, 2);
        for (i, c) in m.coefficients_mut().into_iter().enumerate() {
            assert!(c.is_finite() && *c > 0.0, "coefficient {i}: {c}");
        }
        // The heavy per-element kernels must dwarf the trivial scans.
        assert!(m.integrate_stress > m.volume_check);
        assert!(m.kinematics > m.update_volumes);
    }
}
