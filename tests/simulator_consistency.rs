//! Consistency between the real drivers and their simulator twins. All
//! three walk one `lulesh_core::plan::StepPlan`: the simulator's task graph
//! must have the real graph's shape (tasks and sync points) for every
//! `Features` combination, and its fork-join trace one region per parallel
//! region the fork-join driver runs on the reference plan. This pins the
//! simulator — which regenerates the paper's figures — to the code that
//! actually runs.

use lulesh::core::plan::{PlanShape, StepPlan};
use lulesh::core::Domain;
use lulesh::omp::OmpLulesh;
use lulesh::simsched::{
    estimate_omp, estimate_task, CostModel, LuleshConfig, LuleshModel, MachineParams, SimFeatures,
};
use lulesh::task::{Features, PartitionPlan, TaskLulesh};
use obs::{SpanKind, Tracer};
use std::sync::Arc;

fn model(size: usize, regs: usize, cost: i32) -> LuleshModel {
    let mut cfg = LuleshConfig::with_size(size);
    cfg.num_reg = regs;
    cfg.cost = cost;
    LuleshModel::new(cfg, CostModel::default())
}

/// `(tasks, sync points)` of the real iteration graph.
fn real_graph_shape(size: usize, regs: usize, part: usize, features: Features) -> (usize, usize) {
    let d = Arc::new(Domain::build(size, regs, 1, 1, 0));
    let runner = TaskLulesh::with_features(1, features);
    runner.run(&d, PartitionPlan::fixed(part, part), 1).unwrap();
    let g = runner.graph_stats();
    (g.tasks, g.barriers)
}

/// `(tasks, sync points)` of the simulated graph: barrier nodes are the
/// zero-cost ones.
fn sim_graph_shape(size: usize, regs: usize, part: usize, features: SimFeatures) -> (usize, usize) {
    let g = model(size, regs, 1).task_graph(part, part, features);
    let tasks = g.tasks.iter().filter(|t| t.cost_ns > 0.0).count();
    (tasks, g.len() - tasks)
}

#[test]
fn task_counts_match_between_driver_and_simulator() {
    for (size, regs, part) in [(6usize, 3usize, 32usize), (8, 5, 64), (10, 11, 128)] {
        for features in [Features::default(), Features::naive()] {
            assert_eq!(
                real_graph_shape(size, regs, part, features),
                sim_graph_shape(size, regs, part, features),
                "size {size}, regions {regs}, partition {part}, features {features:?}"
            );
        }
    }
}

#[test]
fn task_counts_match_for_individual_feature_toggles() {
    let base = Features::default();
    for features in [
        Features {
            chain_continuations: false,
            ..base
        },
        Features {
            merge_kernels: false,
            ..base
        },
        Features {
            parallel_force_chains: false,
            ..base
        },
        Features {
            parallel_region_eos: false,
            ..base
        },
    ] {
        assert_eq!(
            real_graph_shape(7, 4, 48, features),
            sim_graph_shape(7, 4, 48, features),
            "features {features:?}"
        );
    }
}

/// Parallel regions per iteration of a traced two-iteration fork-join run
/// on the reference plan or the shared one. Every region leaves one span on
/// thread 0's lane; the iteration span goes to the control lane past the
/// workers.
fn omp_regions_per_iteration(d: &Domain, reference: bool) -> usize {
    let threads = 2;
    let tracer = Tracer::shared(threads + 1);
    let mut omp = OmpLulesh::with_tracer(threads, Arc::clone(&tracer), 0);
    if reference {
        omp = omp.reference();
    }
    let cycles = omp.run(d, 2).unwrap().cycle as usize;
    let spans = tracer.drain();
    let regions = spans
        .iter()
        .filter(|s| s.worker == 0 && s.kind == SpanKind::Region)
        .count();
    assert_eq!(regions % cycles, 0, "{regions} regions in {cycles} cycles");
    regions / cycles
}

#[test]
fn omp_trace_has_one_region_per_driver_region() {
    // Each config has a region with rep > 1, so the EOS ladder's length
    // counts on the reference plan. The shared plan runs one region per
    // chain: 7 + 3R for R regions.
    for (size, regs, cost) in [(5usize, 1usize, 1i32), (8, 11, 1), (6, 21, 32)] {
        let domain = || Domain::build(size, regs, 1, cost, 0);
        let what = format!("size {size}, regions {regs}, cost {cost}");
        assert_eq!(
            omp_regions_per_iteration(&domain(), true),
            model(size, regs, cost).omp_trace().regions.len(),
            "reference plan, {what}"
        );
        let shared = StepPlan::tasks(PlanShape::of(&domain()), Features::default());
        assert_eq!(shared.stages().count(), 7 + 3 * regs, "{what}");
        assert_eq!(
            omp_regions_per_iteration(&domain(), false),
            shared.stages().count(),
            "shared plan, {what}"
        );
    }
}

#[test]
fn simulator_is_deterministic_end_to_end() {
    let model = LuleshModel::new(LuleshConfig::with_size(45), CostModel::default());
    let m = MachineParams::epyc_7443p(24);
    let a = estimate_task(&model, &m, 2048, 2048, SimFeatures::default());
    let b = estimate_task(&model, &m, 2048, 2048, SimFeatures::default());
    assert_eq!(a, b);
    let oa = estimate_omp(&model, &m);
    let ob = estimate_omp(&model, &m);
    assert_eq!(oa, ob);
}

#[test]
fn simulated_total_work_is_implementation_independent() {
    // Both models run the same kernels over the same mesh: their total
    // productive work must agree within the few single-sided scans.
    for size in [20usize, 45] {
        let model = LuleshModel::new(LuleshConfig::with_size(size), CostModel::default());
        let omp_work = model.omp_trace().total_work_ns();
        let task_work = model
            .task_graph(2048, 2048, SimFeatures::default())
            .total_work_ns();
        let rel = (omp_work - task_work).abs() / omp_work;
        assert!(rel < 0.02, "size {size}: relative work gap {rel}");
    }
}

#[test]
fn utilization_of_real_runtimes_orders_like_the_simulation() {
    // On any host, the task port's measured productive ratio should beat
    // the OpenMP reference's for a small barrier-heavy problem, matching
    // the simulated Figure 11 ordering (which prices the reference plan).
    let threads = 2;
    let cycles = 30;

    let d_omp = Domain::build(8, 11, 1, 1, 0);
    let mut omp = OmpLulesh::new(threads).reference();
    omp.reset_counters();
    omp.run(&d_omp, cycles).unwrap();
    let omp_util = omp.utilization();

    let d_task = Arc::new(Domain::build(8, 11, 1, 1, 0));
    let task = TaskLulesh::new(threads);
    task.reset_counters();
    task.run(&d_task, PartitionPlan::fixed(64, 64), cycles)
        .unwrap();
    let task_util = task.utilization();

    assert!(
        task_util > omp_util,
        "real Figure-11 ordering: task {task_util:.3} !> omp {omp_util:.3}"
    );
}
