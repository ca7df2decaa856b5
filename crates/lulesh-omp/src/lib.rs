//! # lulesh-omp — the fork-join LULESH port
//!
//! The fork-join interpreter of a [`StepPlan`]: every stage of the plan is
//! one statically scheduled [`ompsim::Pool`] parallel region, and the
//! region's join is the only synchronization.
//!
//! By default it walks [`StepPlan::tasks`] with every [`Features`] trick
//! on: the fused kernels the task driver runs, over the same chains. The
//! two drivers then differ only in how they synchronize. Here every chain
//! is one region and the chains of a phase run one after another, so an
//! iteration is 7 + 3R regions for R regions (40 at `--s 45 --r 11`).
//!
//! [`OmpLulesh::reference`] walks [`StepPlan::reference`] instead: one
//! region per loop of the LLNL OpenMP code, including the 12-loop EOS
//! ladder, 19 + 2R + Σ_r (12·rep_r + 2) regions per iteration (483 at
//! `--s 45 --r 11 --c 1`). It is the only executed path through that
//! ladder, which the equivalence tests pin; `simsched` prices the same
//! plan for Figures 9–11.
//!
//! Either way the results are bit-identical to `lulesh_core::serial`: the
//! same kernel calls over static chunks of the same index spaces, the same
//! gather orders, and order-independent dt minima. The integration tests
//! assert this.

#![warn(missing_docs)]

use lulesh_core::domain::Domain;
use lulesh_core::params::SimState;
use lulesh_core::plan::{Features, PlanShape, StepPlan, StepScratch};
use lulesh_core::timestep::time_increment;
use lulesh_core::types::LuleshError;
use obs::{SpanKind, Tracer};
use ompsim::Pool;
use parutil::static_split;

/// The fork-join LULESH runner. Owns its thread pool; reusable across runs.
pub struct OmpLulesh {
    pool: Pool,
    /// The plan `run` walks for a mesh of a given shape.
    plan: fn(PlanShape) -> StepPlan,
}

/// The task driver's plan: every trick on.
fn shared_plan(shape: PlanShape) -> StepPlan {
    StepPlan::tasks(shape, Features::default())
}

impl OmpLulesh {
    /// Create a runner with `threads` execution threads.
    pub fn new(threads: usize) -> Self {
        Self {
            pool: Pool::new(threads),
            plan: shared_plan,
        }
    }

    /// Runner with span tracing attached: thread `tid` records each
    /// parallel region on `tracer` lane `lane_base + tid`; the driver's
    /// per-iteration span goes on lane `lane_base + threads`.
    pub fn with_tracer(threads: usize, tracer: std::sync::Arc<Tracer>, lane_base: usize) -> Self {
        Self {
            pool: Pool::with_tracer(threads, tracer, lane_base),
            plan: shared_plan,
        }
    }

    /// This runner, walking [`StepPlan::reference`] instead of the task
    /// driver's plan: one region per loop of the OpenMP reference.
    pub fn reference(self) -> Self {
        Self {
            plan: StepPlan::reference,
            ..self
        }
    }

    /// The attached tracer, if tracing is enabled.
    pub fn tracer(&self) -> Option<&std::sync::Arc<Tracer>> {
        self.pool.tracer()
    }

    /// Execution threads in the pool.
    pub fn threads(&self) -> usize {
        self.pool.nthreads()
    }

    /// Productive-time ratio since the pool's counters were last reset
    /// (Figure 11's OpenMP series).
    pub fn utilization(&self) -> f64 {
        self.pool.utilization_since_reset()
    }

    /// Reset the pool's performance counters.
    pub fn reset_counters(&self) {
        self.pool.reset_counters()
    }

    /// Run `d` for at most `max_cycles` iterations (or to `stoptime`).
    pub fn run(&mut self, d: &Domain, max_cycles: u64) -> Result<SimState, LuleshError> {
        let plan = (self.plan)(PlanShape::of(d));
        let scratch = StepScratch::new(&plan, self.pool.nthreads());
        let mut state = SimState::new(d.initial_dt());
        let trace = self
            .pool
            .tracer()
            .map(std::sync::Arc::clone)
            .zip(self.pool.trace_lane_base());
        while state.time < d.params.stoptime && state.cycle < max_cycles {
            time_increment(&mut state, &d.params);
            let start = trace.as_ref().map(|(t, _)| t.now_ns());
            scratch.begin_iteration(state.deltatime);
            self.step(d, &plan, &scratch)?;
            (state.dtcourant, state.dthydro) = scratch.dt_mins();
            if let (Some((tracer, lane_base)), Some(start)) = (&trace, start) {
                // One region span per leapfrog iteration on the control
                // lane (past the pool's worker lanes).
                tracer.record_interval(
                    lane_base + self.pool.nthreads(),
                    SpanKind::Region,
                    "iteration",
                    start,
                    tracer.now_ns(),
                );
            }
        }
        Ok(state)
    }

    /// One `LagrangeLeapFrog`: one parallel region per stage of `plan`,
    /// stopping at the first stage that reports an error.
    fn step(&mut self, d: &Domain, plan: &StepPlan, s: &StepScratch) -> Result<(), LuleshError> {
        let dt = s.dt();
        for (chain, stage) in plan.stages() {
            let n = plan.shape.len(chain.space);
            self.pool
                .parallel_region_labeled(chain.label, |tid, nthreads| {
                    let c = static_split(n, nthreads, tid);
                    if c.is_empty() {
                        return;
                    }
                    // SAFETY: thread `tid` alone owns chunk `c` and local slot
                    // `tid` in this region, and the pool joins every thread
                    // of the region before the next stage starts.
                    unsafe {
                        let local = s.local(tid);
                        for k in stage {
                            k.run(d, s, local, c, dt);
                        }
                    }
                });
            if let Some(e) = s.error() {
                return Err(e);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lulesh_core::serial;
    use lulesh_core::validate::max_field_difference;

    /// Both plans against the serial reference, bit for bit.
    fn assert_matches_serial(size: usize, regs: usize, threads: usize, cycles: u64) {
        let ds = Domain::build(size, regs, 1, 1, 0);
        serial::run(&ds, cycles).unwrap();
        let runners = [
            ("shared", OmpLulesh::new(threads)),
            ("reference", OmpLulesh::new(threads).reference()),
        ];
        for (plan, mut omp) in runners {
            let dp = Domain::build(size, regs, 1, 1, 0);
            omp.run(&dp, cycles).unwrap();
            assert_eq!(
                max_field_difference(&ds, &dp),
                0.0,
                "{plan} plan, {threads} threads"
            );
        }
    }

    #[test]
    fn matches_serial_single_thread() {
        assert_matches_serial(6, 3, 1, 10);
    }

    #[test]
    fn matches_serial_multi_thread() {
        assert_matches_serial(6, 3, 4, 10);
    }

    #[test]
    fn matches_serial_many_regions_odd_threads() {
        assert_matches_serial(5, 7, 3, 8);
    }

    #[test]
    fn iteration_counts_agree() {
        let ds = Domain::build(5, 2, 1, 1, 0);
        let dp = Domain::build(5, 2, 1, 1, 0);
        let st_s = serial::run(&ds, 1_000_000).unwrap();
        let mut omp = OmpLulesh::new(2);
        let st_p = omp.run(&dp, 1_000_000).unwrap();
        assert_eq!(st_s.cycle, st_p.cycle);
        assert_eq!(st_s.time, st_p.time);
        assert_eq!(st_s.deltatime, st_p.deltatime);
    }

    #[test]
    fn utilization_reported() {
        let d = Domain::build(5, 2, 1, 1, 0);
        let mut omp = OmpLulesh::new(2);
        omp.reset_counters();
        omp.run(&d, 5).unwrap();
        let u = omp.utilization();
        assert!(
            u > 0.0 && u <= 1.0 + parutil::UTILIZATION_EPS,
            "utilization {u}"
        );
    }

    #[test]
    fn traced_run_emits_phase_spans_and_identical_results() {
        let iterations = 3u64;
        let threads = 2usize;
        let ds = Domain::build(5, 2, 1, 1, 0);
        serial::run(&ds, iterations).unwrap();

        let tracer = Tracer::shared(threads + 1);
        let dp = Domain::build(5, 2, 1, 1, 0);
        let mut omp = OmpLulesh::with_tracer(threads, std::sync::Arc::clone(&tracer), 0);
        omp.run(&dp, iterations).unwrap();
        assert_eq!(
            max_field_difference(&ds, &dp),
            0.0,
            "tracing must not perturb physics"
        );

        let spans = tracer.drain();
        let iter_spans = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Region && s.label == "iteration")
            .count();
        assert_eq!(iter_spans as u64, iterations);
        // Every kernel phase shows up, and each loop produced one span per
        // participating thread.
        for phase in [
            "stress",
            "hourglass",
            "node",
            "kinematics",
            "eos",
            "constraints",
        ] {
            let n = spans
                .iter()
                .filter(|s| s.kind == SpanKind::Region && s.label == phase)
                .count();
            assert!(n >= threads, "phase {phase} missing from trace ({n} spans)");
        }
    }
}
