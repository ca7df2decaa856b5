//! Quickstart: run the same small Sedov problem through all three
//! implementations — serial reference, fork-join (OpenMP-style) port, and
//! the paper's many-task port — and verify they agree bit-for-bit.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use lulesh::core::{serial, validate, Domain, RunReport};
use lulesh::omp::OmpLulesh;
use lulesh::task::{PartitionPlan, TaskLulesh};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let size = 12;
    let regions = 6;
    let cycles = 80;
    let threads = 4;

    println!("Sedov blast: {size}^3 elements, {regions} regions, {cycles} cycles\n");

    // 1. Serial golden reference.
    let d_serial = Domain::build(size, regions, 1, 1, 0);
    let t0 = Instant::now();
    let state = serial::run(&d_serial, cycles).expect("stable run");
    let report = RunReport::collect(&d_serial, &state, 1, t0.elapsed());
    println!(
        "serial : {:>8.3}s  e(origin) = {:.6e}",
        report.elapsed.as_secs_f64(),
        report.final_energy
    );

    // 2. Fork-join port: the task port's kernels, one parallel region per
    //    chain (7 + 3R per iteration), each joined before the next.
    let d_omp = Domain::build(size, regions, 1, 1, 0);
    let mut omp = OmpLulesh::new(threads);
    let t0 = Instant::now();
    omp.run(&d_omp, cycles).expect("stable run");
    println!(
        "omp    : {:>8.3}s  utilization = {:.1}%",
        t0.elapsed().as_secs_f64(),
        100.0 * omp.utilization()
    );

    // 3. The paper's many-task port (six sync points per iteration).
    let d_task = Arc::new(Domain::build(size, regions, 1, 1, 0));
    let task = TaskLulesh::new(threads);
    let t0 = Instant::now();
    task.run(
        &d_task,
        PartitionPlan::for_size_threads(size, threads),
        cycles,
    )
    .expect("stable run");
    let g = task.graph_stats();
    println!(
        "task   : {:>8.3}s  utilization = {:.1}%  ({} tasks, {} sync points / iter)",
        t0.elapsed().as_secs_f64(),
        100.0 * task.utilization(),
        g.tasks,
        g.barriers
    );

    // All three must agree exactly.
    assert_eq!(validate::max_field_difference(&d_serial, &d_omp), 0.0);
    assert_eq!(validate::max_field_difference(&d_serial, &d_task), 0.0);
    println!("\nall three implementations agree bit-for-bit ✔");

    let sym = validate::symmetry_check(&d_serial);
    println!(
        "Sedov symmetry: max|Δe| = {:.3e}, total = {:.3e}",
        sym.max_abs_diff, sym.total_abs_diff
    );
}
