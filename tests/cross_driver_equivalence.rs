//! Cross-driver integration tests: the serial reference, the fork-join
//! port (on both of its plans) and the many-task port must produce
//! bit-identical physics for any configuration, thread count, partitioning
//! and feature set.

use lulesh::core::domain::Field;
use lulesh::core::{serial, validate, Domain};
use lulesh::omp::OmpLulesh;
use lulesh::task::{Features, PartitionPlan, TaskLulesh};
use std::sync::Arc;

fn serial_ref(size: usize, regs: usize, cycles: u64) -> Domain {
    let d = Domain::build(size, regs, 1, 1, 0);
    serial::run(&d, cycles).expect("serial reference must be stable");
    d
}

/// The fork-join runners: the shared plan the binary runs, and the OpenMP
/// reference's loop-per-kernel plan.
fn omp_runners(threads: usize) -> [(&'static str, OmpLulesh); 2] {
    [
        ("omp", OmpLulesh::new(threads)),
        ("omp reference", OmpLulesh::new(threads).reference()),
    ]
}

#[test]
fn all_three_agree_on_a_medium_problem() {
    let (size, regs, cycles) = (10, 11, 25);
    let d_ref = serial_ref(size, regs, cycles);

    let d_omp = Domain::build(size, regs, 1, 1, 0);
    OmpLulesh::new(3).run(&d_omp, cycles).unwrap();
    assert_eq!(validate::max_field_difference(&d_ref, &d_omp), 0.0);

    let d_task = Arc::new(Domain::build(size, regs, 1, 1, 0));
    TaskLulesh::new(3)
        .run(&d_task, PartitionPlan::for_size_threads(size, 3), cycles)
        .unwrap();
    assert_eq!(validate::max_field_difference(&d_ref, &d_task), 0.0);
}

#[test]
fn agreement_across_thread_counts() {
    let (size, regs, cycles) = (7, 4, 15);
    let d_ref = serial_ref(size, regs, cycles);
    for threads in [1usize, 2, 5] {
        for (driver, mut omp) in omp_runners(threads) {
            let d_omp = Domain::build(size, regs, 1, 1, 0);
            omp.run(&d_omp, cycles).unwrap();
            assert_eq!(
                validate::max_field_difference(&d_ref, &d_omp),
                0.0,
                "{driver}, {threads} threads"
            );
        }

        let d_task = Arc::new(Domain::build(size, regs, 1, 1, 0));
        TaskLulesh::new(threads)
            .run(&d_task, PartitionPlan::fixed(48, 48), cycles)
            .unwrap();
        assert_eq!(
            validate::max_field_difference(&d_ref, &d_task),
            0.0,
            "task, {threads} threads"
        );
    }
}

#[test]
fn agreement_across_region_counts_and_seeds() {
    for (regs, seed) in [(1usize, 0u64), (3, 0), (11, 0), (5, 7)] {
        let d_ref = Domain::build(6, regs, 1, 1, seed);
        serial::run(&d_ref, 12).unwrap();

        let d_task = Arc::new(Domain::build(6, regs, 1, 1, seed));
        TaskLulesh::new(2)
            .run(&d_task, PartitionPlan::fixed(32, 32), 12)
            .unwrap();
        assert_eq!(
            validate::max_field_difference(&d_ref, &d_task),
            0.0,
            "regions {regs}, seed {seed}"
        );
    }
}

#[test]
fn agreement_with_balance_and_cost_flags() {
    // The -b/-c flags change region weights and rep factors; physics must
    // not change across drivers.
    let d_ref = Domain::build(6, 8, 2, 3, 0);
    serial::run(&d_ref, 10).unwrap();

    for (driver, mut omp) in omp_runners(2) {
        let d_omp = Domain::build(6, 8, 2, 3, 0);
        omp.run(&d_omp, 10).unwrap();
        assert_eq!(
            validate::max_field_difference(&d_ref, &d_omp),
            0.0,
            "{driver}"
        );
    }

    let d_task = Arc::new(Domain::build(6, 8, 2, 3, 0));
    TaskLulesh::new(2)
        .run(&d_task, PartitionPlan::fixed(40, 40), 10)
        .unwrap();
    assert_eq!(validate::max_field_difference(&d_ref, &d_task), 0.0);
}

#[test]
fn every_feature_combination_is_exact() {
    let d_ref = serial_ref(6, 5, 10);
    for bits in 0..16u32 {
        let features = Features {
            chain_continuations: bits & 1 != 0,
            merge_kernels: bits & 2 != 0,
            parallel_force_chains: bits & 4 != 0,
            parallel_region_eos: bits & 8 != 0,
        };
        let d_task = Arc::new(Domain::build(6, 5, 1, 1, 0));
        TaskLulesh::with_features(2, features)
            .run(&d_task, PartitionPlan::fixed(24, 24), 10)
            .unwrap();
        assert_eq!(
            validate::max_field_difference(&d_ref, &d_task),
            0.0,
            "feature bits {bits:04b}"
        );
    }
}

#[test]
fn full_runs_reach_stoptime_identically() {
    // Run a tiny problem to completion in all three drivers.
    let d_ref = Domain::build(5, 3, 1, 1, 0);
    let st_ref = serial::run(&d_ref, u64::MAX).unwrap();
    assert!(st_ref.time >= d_ref.params.stoptime);

    let d_omp = Domain::build(5, 3, 1, 1, 0);
    let st_omp = OmpLulesh::new(2).run(&d_omp, u64::MAX).unwrap();
    assert_eq!(st_ref.cycle, st_omp.cycle);
    assert_eq!(st_ref.time, st_omp.time);

    let d_task = Arc::new(Domain::build(5, 3, 1, 1, 0));
    let st_task = TaskLulesh::new(2)
        .run(&d_task, PartitionPlan::fixed(32, 32), u64::MAX)
        .unwrap();
    assert_eq!(st_ref.cycle, st_task.cycle);
    assert_eq!(st_ref.time, st_task.time);
    assert_eq!(
        validate::final_origin_energy(&d_ref),
        validate::final_origin_energy(&d_task)
    );
}

/// Every value of every field, as raw bits.
fn field_bits(d: &Domain) -> Vec<u64> {
    let values = |f| (0..d.field_len(f)).map(move |i| d.get(f, i));
    Field::ALL
        .into_iter()
        .flat_map(values)
        .map(f64::to_bits)
        .collect()
}

#[test]
fn default_width_runs_are_bitwise_equal_to_scalar_in_every_driver() {
    // The default-width contract: what a plain run of any driver computes
    // (kernels at the platform's `LaneWidth::native()`, the global's
    // initial value: w8 on an AVX-512 host, w4 elsewhere) is,
    // bit for bit, what the same run computes on the scalar reference
    // loops. Other tests of this binary may flip the global meanwhile;
    // that can only change which widths a run mixes, never a result.
    use lulesh::core::simd::{self, LaneWidth};
    let (size, regs, cycles) = (8, 5, 20);
    let decomp = multidom::Decomposition::new(size, 2);
    let run_all = || -> Vec<(&'static str, Vec<u64>)> {
        let d_serial = serial_ref(size, regs, cycles);
        let d_omp = Domain::build(size, regs, 1, 1, 0);
        OmpLulesh::new(2).run(&d_omp, cycles).unwrap();
        let d_task = Arc::new(Domain::build(size, regs, 1, 1, 0));
        TaskLulesh::new(2)
            .run(&d_task, PartitionPlan::fixed(48, 48), cycles)
            .unwrap();
        let mut world = multidom::World::build(decomp, regs, 1, 1, 0);
        world.run(cycles).unwrap();
        vec![
            ("serial", field_bits(&d_serial)),
            ("omp", field_bits(&d_omp)),
            ("task", field_bits(&d_task)),
            (
                "lockstep multidom",
                world.domains.iter().flat_map(field_bits).collect(),
            ),
        ]
    };

    // The platform default: w8 where AVX-512F/DQ is detected, w4 elsewhere.
    let avx512 = simd::Isa::detect(LaneWidth::W8) == simd::Isa::Avx512;
    let platform = if avx512 { LaneWidth::W8 } else { LaneWidth::W4 };
    assert_eq!(LaneWidth::native(), platform);

    let prior = simd::active();
    let at_default = run_all();
    simd::set_active(LaneWidth::W1);
    let at_scalar = run_all();
    simd::set_active(prior);

    for ((driver, default), (_, scalar)) in at_default.iter().zip(&at_scalar) {
        assert!(default == scalar, "{driver}: default width vs scalar");
    }
    // And across drivers (the single-domain ones share one mesh).
    for (driver, bits) in &at_default[1..3] {
        assert!(bits == &at_default[0].1, "{driver} vs serial");
    }
}

#[test]
fn physics_invariants_hold_in_parallel_runs() {
    let d_task = Arc::new(Domain::build(8, 6, 1, 1, 0));
    TaskLulesh::new(4)
        .run(&d_task, PartitionPlan::fixed(64, 64), 40)
        .unwrap();
    validate::check_invariants(&d_task).expect("invariants after a parallel run");
    let sym = validate::symmetry_check(&d_task);
    assert!(sym.max_abs_diff < 1e-7, "Sedov symmetry: {sym:?}");
}
