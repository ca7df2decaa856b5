//! Translate LULESH configurations into simulator workloads by walking the
//! drivers' own [`StepPlan`]s: the fork-join trace is
//! [`StepPlan::reference`] one region per stage, the task graph is
//! [`StepPlan::tasks`] one node per stage per partition. Only the pricing
//! of each [`Kernel`] lives here.

use crate::costmodel::CostModel;
use crate::forkjoin::{ForkJoinTrace, Region};
use crate::machine::{MachineParams, SimResult};
use crate::steal::TaskGraph;
use lulesh_core::plan::{Grain, GraphSink, Kernel, PlanShape, StepPlan, EOS_FINISH, EOS_LADDER};
use lulesh_core::regions::Regions;
use parutil::Chunk;

/// The task driver's trick toggles, `lulesh_task::Features` itself: the
/// simulator builds its graphs from the same plan.
pub use lulesh_core::plan::Features as SimFeatures;

/// Problem configuration (mirrors the CLI flags).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LuleshConfig {
    /// Elements per edge (`--s`).
    pub size: usize,
    /// Region count (`--r`).
    pub num_reg: usize,
    /// Region weighting exponent (`--b`).
    pub balance: i32,
    /// Region cost multiplier (`--c`).
    pub cost: i32,
    /// Region assignment seed.
    pub seed: u64,
}

impl LuleshConfig {
    /// Default-flag configuration for a given size (11 regions).
    pub fn with_size(size: usize) -> Self {
        Self {
            size,
            num_reg: 11,
            balance: 1,
            cost: 1,
            seed: 0,
        }
    }
}

/// A LULESH problem instantiated for the simulator.
#[derive(Debug, Clone)]
pub struct LuleshModel {
    /// The configuration this model was built from.
    pub cfg: LuleshConfig,
    /// Element count.
    pub num_elem: usize,
    /// Node count.
    pub num_node: usize,
    /// Symmetry-plane node count (per plane).
    pub symm_len: usize,
    /// Elements per region (same decomposition as the real drivers).
    pub region_sizes: Vec<usize>,
    /// EOS repetition factor per region.
    pub reps: Vec<usize>,
    /// Kernel cost coefficients.
    pub cm: CostModel,
}

impl LuleshModel {
    /// Instantiate the model (builds the same `Regions` as the drivers).
    pub fn new(cfg: LuleshConfig, cm: CostModel) -> Self {
        let num_elem = cfg.size * cfg.size * cfg.size;
        let en = cfg.size + 1;
        let regions = Regions::create(num_elem, cfg.num_reg, cfg.balance, cfg.cost, cfg.seed);
        let region_sizes = (0..cfg.num_reg).map(|r| regions.reg_elem_size(r)).collect();
        let reps = (0..cfg.num_reg).map(|r| regions.rep(r)).collect();
        Self {
            cfg,
            num_elem,
            num_node: en * en * en,
            symm_len: en * en,
            region_sizes,
            reps,
            cm,
        }
    }

    /// Iterations a full run takes for this size (power-law fit of the
    /// serial driver's measured cycle counts: 163 @ s=8, 400 @ s=15,
    /// 932 @ s=30 — the Sedov CFL scaling).
    pub fn iterations(&self) -> u64 {
        (10.5 * (self.cfg.size as f64).powf(1.32)).round() as u64
    }

    /// The mesh shape the drivers' plans are built from.
    pub fn shape(&self) -> PlanShape {
        PlanShape {
            num_elem: self.num_elem,
            num_node: self.num_node,
            symm_len: self.symm_len,
            region_lens: self.region_sizes.clone(),
            reps: self.reps.clone(),
        }
    }

    /// The OpenMP reference as a fork-join trace: one region per stage of
    /// [`StepPlan::reference`], in the driver's order —
    /// 19 + 2R + Σ_r (12·rep_r + 2) regions for R regions.
    pub fn omp_trace(&self) -> ForkJoinTrace {
        let plan = StepPlan::reference(self.shape());
        let regions = plan
            .stages()
            .map(|(chain, stage)| {
                let (cost_per_item_ns, mem_weight) =
                    self.price(stage, 1, &MemWeights::GLOBAL_SCRATCH);
                Region {
                    items: plan.shape.len(chain.space),
                    cost_per_item_ns,
                    mem_weight,
                }
            })
            .collect();
        ForkJoinTrace {
            regions,
            serial_ns: 0.0,
        }
    }

    /// The task port's per-iteration dependency graph:
    /// [`StepPlan::tasks`] emitted exactly as `lulesh_task` emits it (same
    /// partitions, same syncs, same labels).
    pub fn task_graph(&self, part_nodal: usize, part_elem: usize, f: SimFeatures) -> TaskGraph {
        let plan = StepPlan::tasks(self.shape(), f);
        // Task-local temporaries (T6) only exist when kernels are merged
        // into single task bodies; the unmerged ablation falls back to the
        // reference's global scratch and its bandwidth weights.
        let weights = if f.merge_kernels {
            MemWeights::TASK_LOCAL
        } else {
            MemWeights::GLOBAL_SCRATCH
        };
        let mut sink = PricedGraph {
            model: self,
            weights,
            g: TaskGraph::new(),
        };
        let mut dep = None;
        for phase in &plan.phases {
            let part = match phase.grain {
                Grain::Nodal => part_nodal,
                Grain::Elements => part_elem,
            };
            dep = Some(plan.emit_phase(&mut sink, phase, part, dep, f.chain_continuations));
        }
        sink.g
    }

    /// `(ns, memory weight)` of one task or loop running `stage` over
    /// `items` indices. Several loops in one body add their costs and
    /// cost-average their weights; a fused kernel costs what the loops it
    /// replaces cost.
    fn price(&self, stage: &[Kernel], items: usize, w: &MemWeights) -> (f64, f64) {
        use Kernel::*;
        let loops: &[Kernel] = match stage {
            [Stress] => &[InitStress, IntegrateStressChecked],
            [Hourglass] => &[HourglassControl, HourglassFb],
            loops => loops,
        };
        let l = items as f64;
        let (mut total, mut weighted, mut weight) = (0.0, 0.0, 0.0);
        for &k in loops {
            let (per_item, mw) = self.rate(k, w);
            total += per_item * l;
            weighted += per_item * l * mw;
            weight = mw;
        }
        match loops.len() {
            1 => (total, weight),
            _ if total == 0.0 => (0.0, 0.0),
            _ => (total, weighted / total),
        }
    }

    /// `(ns per item, memory weight)` of one loop.
    fn rate(&self, k: Kernel, w: &MemWeights) -> (f64, f64) {
        use Kernel::*;
        let cm = &self.cm;
        let cw = CommonWeights::DEFAULT;
        match k {
            ZeroForces => (cm.zero_forces, cw.field),
            InitStress => (cm.init_stress, w.init_stress),
            IntegrateStress => (cm.integrate_stress, w.integrate_stress),
            CheckVolume => (cm.volume_check, cw.field),
            IntegrateStressChecked => (cm.integrate_stress + cm.volume_check, w.integrate_stress),
            HourglassControl => (cm.hg_control, w.hg_control),
            HourglassFb => (cm.hg_fb, w.hg_fb),
            GatherSet => (cm.gather_set, w.gather),
            GatherAdd => (cm.gather_add, w.gather),
            GatherSum2 => (cm.gather_set + cm.gather_add, w.gather),
            Acceleration => (cm.accel, cw.field),
            AccelerationBc => (cm.accel_bc, cw.bc),
            // Index arithmetic over every node: charge the same *total* work
            // as the reference's three symmetry-list loops.
            AccelerationBcByNode => (
                cm.accel_bc * (3.0 * self.symm_len as f64) / self.num_node as f64,
                cw.bc,
            ),
            Velocity => (cm.velocity, cw.field),
            Position => (cm.position, cw.field),
            Kinematics => (cm.kinematics, cw.compute),
            LagrangeFinish => (cm.lagrange_finish, cw.field),
            MonoqGradients => (cm.monoq_gradients, cw.compute),
            MonoqRegion(_) => (cm.monoq_region, cw.field),
            QStop => (cm.qstop_check, cw.field),
            VnewcFill => (cm.vnewc_fill, cw.field),
            VnewcCheck => (cm.vnewc_check, cw.field),
            Eos(r) => (cm.eos_per_rep * self.reps[r] as f64 + cm.eos_finish, w.eos),
            // Every loop of the reference ladder is its own parallel region:
            // the per-loop barrier cost is what grows with the region count
            // in Figure 10. The loops split each cost evenly.
            EosLoop(step, _) if EOS_FINISH.contains(&step) => {
                (cm.eos_finish / EOS_FINISH.len() as f64, cw.eos_finish)
            }
            EosLoop(..) => (cm.eos_per_rep / EOS_LADDER.len() as f64, w.eos),
            UpdateVolumes => (cm.update_volumes, cw.field),
            Constraints(_) => (cm.constraints, cw.field),
            Stress | Hourglass => unreachable!("fused kernels are priced as their loops"),
        }
    }
}

/// A [`TaskGraph`] filled from a plan: each task priced from the model.
struct PricedGraph<'a> {
    model: &'a LuleshModel,
    weights: MemWeights,
    g: TaskGraph,
}

impl GraphSink for PricedGraph<'_> {
    type Node = usize;

    fn task(
        &mut self,
        label: &'static str,
        stage: &[Kernel],
        c: Chunk,
        dep: Option<usize>,
    ) -> usize {
        let (cost, mem_weight) = self.model.price(stage, c.len(), &self.weights);
        let deps = dep.into_iter().collect();
        self.g
            .add_weighted_labeled(label, cost, deps, mem_weight, c.len())
    }

    fn sync(&mut self, label: &'static str, deps: &[usize]) -> usize {
        self.g.add_labeled(label, 0.0, deps.to_vec())
    }
}

/// Memory-bandwidth weights of the scratch-heavy kernels under the two
/// scratch strategies: the reference's mesh-length global arrays stream
/// through DRAM; per-task temporaries (paper trick T6) stay cache-resident.
/// The scratch-independent kernels share [`CommonWeights`], used by *both*
/// trace builders so the two cannot drift.
#[derive(Debug, Clone, Copy)]
struct MemWeights {
    init_stress: f64,
    integrate_stress: f64,
    hg_control: f64,
    hg_fb: f64,
    gather: f64,
    eos: f64,
}

/// Bandwidth weights of the kernels whose memory behaviour does not depend
/// on the scratch strategy (they read/write the mesh fields directly).
#[derive(Debug, Clone, Copy)]
struct CommonWeights {
    /// Dense field scans and element/node updates (streaming, moderate).
    field: f64,
    /// Compute-heavy per-element kernels (kinematics, gradients).
    compute: f64,
    /// Tiny symmetry-plane loop.
    bc: f64,
    /// EOS store + sound speed scatter.
    eos_finish: f64,
}

impl CommonWeights {
    const DEFAULT: Self = Self {
        field: 0.3,
        compute: 0.2,
        bc: 0.1,
        eos_finish: 0.4,
    };
}

impl MemWeights {
    /// Reference-style global scratch arrays.
    const GLOBAL_SCRATCH: Self = Self {
        init_stress: 0.5,
        integrate_stress: 0.8,
        hg_control: 0.9,
        hg_fb: 0.9,
        gather: 0.8,
        eos: 0.5,
    };
    /// Task-local temporaries: only the per-corner force arrays (needed by
    /// the cross-task gather) remain global.
    const TASK_LOCAL: Self = Self {
        init_stress: 0.1,
        integrate_stress: 0.45,
        hg_control: 0.2,
        hg_fb: 0.25,
        gather: 0.8,
        eos: 0.12,
    };
}

/// Runtime and utilization estimate for one full run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunEstimate {
    /// Total simulated wall time for the full run, in seconds.
    pub seconds: f64,
    /// Per-iteration simulated wall time, in ns.
    pub iteration_ns: f64,
    /// Productive-time ratio (Figure 11's metric).
    pub utilization: f64,
    /// Tasks (or loop-chunks) per iteration.
    pub tasks_per_iteration: usize,
}

/// Simulate the OpenMP reference for a configuration.
pub fn estimate_omp(model: &LuleshModel, machine: &MachineParams) -> RunEstimate {
    let trace = model.omp_trace();
    let r = crate::forkjoin::simulate_fork_join(&trace, machine);
    finish_estimate(model, machine, r)
}

/// Simulate the OpenMP reference with `schedule(dynamic, chunk)` on every
/// loop — the counterfactual baseline (see the `whatif` bench binary).
pub fn estimate_omp_dynamic(
    model: &LuleshModel,
    machine: &MachineParams,
    chunk: usize,
) -> RunEstimate {
    let trace = model.omp_trace();
    let r = crate::forkjoin::simulate_fork_join_dynamic(&trace, machine, chunk);
    finish_estimate(model, machine, r)
}

/// Simulate the task port for a configuration.
pub fn estimate_task(
    model: &LuleshModel,
    machine: &MachineParams,
    part_nodal: usize,
    part_elem: usize,
    features: SimFeatures,
) -> RunEstimate {
    let graph = model.task_graph(part_nodal, part_elem, features);
    let r = crate::steal::simulate_work_stealing(&graph, machine);
    finish_estimate(model, machine, r)
}

/// Exhaustively sweep every `(nodal, elements)` pair from `candidates`
/// through [`estimate_task`] and return the argmin:
/// `(nodal, elements, best_estimate)`. This is the simulator's Table I
/// reproduction (the `table1` bench).
pub fn sweep_partitions(
    model: &LuleshModel,
    machine: &MachineParams,
    features: SimFeatures,
    candidates: &[usize],
) -> (usize, usize, RunEstimate) {
    assert!(!candidates.is_empty(), "need at least one candidate size");
    let mut best: Option<(usize, usize, RunEstimate)> = None;
    for &pn in candidates {
        for &pe in candidates {
            let est = estimate_task(model, machine, pn, pe, features);
            if best.is_none_or(|(_, _, b)| est.seconds < b.seconds) {
                best = Some((pn, pe, est));
            }
        }
    }
    best.expect("non-empty candidate list")
}

fn finish_estimate(model: &LuleshModel, machine: &MachineParams, r: SimResult) -> RunEstimate {
    let iters = model.iterations() as f64;
    RunEstimate {
        seconds: r.makespan_ns * iters * 1e-9,
        iteration_ns: r.makespan_ns,
        utilization: r.utilization(machine.threads),
        tasks_per_iteration: r.tasks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(size: usize, regs: usize) -> LuleshModel {
        LuleshModel::new(
            LuleshConfig {
                size,
                num_reg: regs,
                balance: 1,
                cost: 1,
                seed: 0,
            },
            CostModel::default(),
        )
    }

    #[test]
    fn omp_trace_region_count_grows_with_regions() {
        let t11 = model(30, 11).omp_trace();
        let t21 = model(30, 21).omp_trace();
        assert!(t21.regions.len() > t11.regions.len());
        // 11 regions, reps [1×5, 2×5, 20]: 19 + 2·11 + Σ_r (12·rep_r + 2).
        assert_eq!(model(30, 11).reps.iter().sum::<usize>(), 5 + 10 + 20);
        assert_eq!(t11.regions.len(), 19 + 2 * 11 + 12 * 35 + 2 * 11);
    }

    #[test]
    fn eos_ladder_keeps_the_total_eos_work() {
        // Splitting `eos_per_rep` over the ladder's loops and `eos_finish`
        // over the finish loops leaves Σ work what the cost model says.
        let m = model(20, 11);
        let cm = &m.cm;
        // `iteration_work_ns` leaves out only the symmetry-plane loop.
        let per_iter = cm.iteration_work_ns(m.num_elem, m.num_node, &m.region_sizes, &m.reps);
        let bc = cm.accel_bc * m.symm_len as f64;
        let rel = (m.omp_trace().total_work_ns() - per_iter - bc).abs() / per_iter;
        assert!(rel < 1e-12, "relative gap {rel}");
    }

    #[test]
    fn omp_and_task_have_comparable_total_work() {
        // Same kernels run in both ports: total productive work must agree
        // to within the few scans only one side performs (zero_forces).
        let m = model(20, 11);
        let trace = m.omp_trace();
        let graph = m.task_graph(1024, 1024, SimFeatures::default());
        let a = trace.total_work_ns();
        let b = graph.total_work_ns();
        let rel = (a - b).abs() / a;
        assert!(rel < 0.02, "work mismatch {rel}: omp {a} vs task {b}");
    }

    #[test]
    fn task_graph_labels_cover_all_work() {
        // Every compute task carries a phase label and the per-label sums
        // account for the full serial work — the drift report loses nothing.
        for f in [SimFeatures::default(), SimFeatures::naive()] {
            let g = model(15, 11).task_graph(512, 512, f);
            for (i, t) in g.tasks.iter().enumerate() {
                if t.cost_ns > 0.0 {
                    assert!(!t.label.is_empty(), "task {i} has work but no label");
                } else {
                    assert!(t.label.starts_with("barrier"), "sync node {i} mislabeled");
                }
            }
            let labeled: f64 = g.work_by_label().iter().map(|(_, w)| w).sum();
            assert!((labeled - g.total_work_ns()).abs() < 1e-6);
        }
    }

    #[test]
    fn task_graph_shrinks_with_larger_partitions() {
        let m = model(20, 11);
        let small = m.task_graph(256, 256, SimFeatures::default());
        let large = m.task_graph(4096, 4096, SimFeatures::default());
        assert!(small.len() > large.len());
    }

    #[test]
    fn naive_features_add_barrier_nodes() {
        let m = model(15, 11);
        let opt = m.task_graph(512, 512, SimFeatures::default());
        let naive = m.task_graph(512, 512, SimFeatures::naive());
        assert!(naive.len() > opt.len());
    }

    #[test]
    fn single_thread_omp_beats_task_port() {
        // Paper §V-A: at one thread the OpenMP version is faster because of
        // task creation/scheduling overhead.
        let m = model(30, 11);
        let machine = MachineParams::epyc_7443p(1);
        let omp = estimate_omp(&m, &machine);
        let task = estimate_task(&m, &machine, 2048, 2048, SimFeatures::default());
        assert!(
            omp.seconds < task.seconds,
            "omp {} !< task {}",
            omp.seconds,
            task.seconds
        );
    }

    #[test]
    fn task_port_wins_at_24_threads_small_size() {
        // Paper Fig 10: greatest speed-up at the smallest size.
        let m = model(45, 11);
        let machine = MachineParams::epyc_7443p(24);
        let omp = estimate_omp(&m, &machine);
        let task = estimate_task(&m, &machine, 2048, 2048, SimFeatures::default());
        let speedup = omp.seconds / task.seconds;
        assert!(speedup > 1.0, "expected task-port win, speedup {speedup}");
    }

    #[test]
    fn utilization_higher_for_task_port() {
        // Paper Fig 11.
        let m = model(45, 11);
        let machine = MachineParams::epyc_7443p(24);
        let omp = estimate_omp(&m, &machine);
        let task = estimate_task(&m, &machine, 2048, 2048, SimFeatures::default());
        assert!(
            task.utilization > omp.utilization,
            "task {} !> omp {}",
            task.utilization,
            omp.utilization
        );
    }

    #[test]
    fn iterations_fit_matches_measured_counts() {
        for (s, measured) in [(8usize, 163u64), (15, 400), (30, 932)] {
            let m = model(s, 11);
            let est = m.iterations();
            let rel = (est as f64 - measured as f64).abs() / measured as f64;
            assert!(rel < 0.12, "size {s}: fit {est} vs measured {measured}");
        }
    }

    #[test]
    fn smt_threads_slower_than_24() {
        let m = model(45, 11);
        let t24 = estimate_task(
            &m,
            &MachineParams::epyc_7443p(24),
            2048,
            2048,
            SimFeatures::default(),
        );
        let t48 = estimate_task(
            &m,
            &MachineParams::epyc_7443p(48),
            2048,
            2048,
            SimFeatures::default(),
        );
        assert!(
            t48.seconds > t24.seconds,
            "SMT oversubscription should not help"
        );
    }
}
