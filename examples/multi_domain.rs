//! The paper's future work, running for real: decompose the Sedov cube
//! into ζ slabs ("ranks"), advance them with MPI-style halo exchanges —
//! lockstep, with one thread per rank, and with a task runtime per rank,
//! the last two driven by the same default `RunPlan` — and verify against
//! the single-domain solution.
//!
//! ```sh
//! cargo run --release --example multi_domain
//! ```

use lulesh::core::{serial, Domain};
use multidom::{fold, taskpar, threaded, Decomposition, RunPlan, SimArgs, World};

fn main() {
    let size = 12;
    let cycles = 60;

    // Single-domain golden solution.
    let single = Domain::build(size, 4, 1, 1, 0);
    serial::run(&single, cycles).unwrap();

    println!("global problem: {size}^3 elements, {cycles} cycles\n");
    println!(
        "{:>6} {:>14} {:>22} {:>20}",
        "ranks", "driver", "max |Δ| vs single", "interface mismatch"
    );

    for ranks in [1usize, 2, 3, 4] {
        if size % ranks != 0 {
            continue;
        }
        let decomp = Decomposition::new(size, ranks);

        // Lockstep driver.
        let mut world = World::build(decomp, 4, 1, 1, 0);
        world.run(cycles).unwrap();
        let diff = world.max_difference_vs_single(&single);
        let iface = world.interface_mismatch();
        println!("{ranks:>6} {:>14} {diff:>22.3e} {iface:>20.3e}", "lockstep");
        assert!(diff < 1e-7);
        assert_eq!(
            iface, 0.0,
            "duplicated interface nodes must agree bit-for-bit"
        );

        // Threaded (message-passing) driver: bit-identical to lockstep.
        let sim = SimArgs::new(4, 1, 1, 0, cycles);
        let (domains, _) = fold(threaded::run(decomp, sim, &RunPlan::default())).unwrap();
        let mut max_thr: f64 = 0.0;
        for (a, b) in world.domains.iter().zip(&domains) {
            max_thr = max_thr.max(lulesh::core::validate::max_field_difference(a, b));
        }
        println!(
            "{ranks:>6} {:>14} {:>22} {:>20}",
            "threaded", "= lockstep", "bitwise"
        );
        assert_eq!(max_thr, 0.0);

        // Task-parallel ranks (2 workers each) with exchange tasks: also
        // bit-identical — the "HPX-native multi-node" configuration.
        let (domains, _) = fold(taskpar::run(
            decomp,
            sim,
            2,
            lulesh::task::PartitionPlan::fixed(48, 48),
            false,
            &RunPlan::default(),
        ))
        .unwrap();
        let mut max_tp: f64 = 0.0;
        for (a, b) in world.domains.iter().zip(&domains) {
            max_tp = max_tp.max(lulesh::core::validate::max_field_difference(a, b));
        }
        println!(
            "{ranks:>6} {:>14} {:>22} {:>20}",
            "task-parallel", "= lockstep", "bitwise"
        );
        assert_eq!(max_tp, 0.0);
    }

    println!("\ndecomposed runs agree with the single domain to interface-plane");
    println!("float regrouping only; both drivers agree with each other exactly ✔");
}
