//! Many-task LULESH binary — the paper's implementation. CLI matches the
//! artifact (`--s`, `--r`, `--i`, `--q`, `--hpx:threads`/`--threads`),
//! CSV output format `size,regions,iterations,threads,runtime,result`,
//! plus `--partition table|fixed:N` selecting the run's partition plan.

use lulesh_core::{Domain, Opts, PartitionMode, RunReport};
use lulesh_task::{Features, PartitionPlan, TaskLulesh};
use obs::Tracer;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Opts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("{}", Opts::usage("lulesh-task"));
            std::process::exit(2);
        }
    };

    let domain = Arc::new(Domain::build(
        opts.size,
        opts.num_reg,
        opts.balance,
        opts.cost,
        opts.seed,
    ));
    lulesh_core::simd::set_active(opts.simd);
    let plan = match opts.partition {
        PartitionMode::Table => PartitionPlan::for_size_threads(opts.size, opts.threads),
        PartitionMode::Fixed(n) => PartitionPlan::fixed(n, n),
    };

    // One lane per worker plus a control lane for iteration spans.
    let tracer =
        (opts.trace.is_some() || opts.metrics.is_some()).then(|| Tracer::shared(opts.threads + 1));
    let runner = match &tracer {
        Some(t) => TaskLulesh::with_tracer(opts.threads, Features::default(), Arc::clone(t), 0),
        None => TaskLulesh::new(opts.threads),
    };
    runner.reset_counters();
    let t0 = Instant::now();
    let state = match runner.run(&domain, plan, opts.max_cycles) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("run failed: {e}");
            std::process::exit(1);
        }
    };
    let elapsed = t0.elapsed();

    let report = RunReport::collect(&domain, &state, opts.threads, elapsed);
    if !opts.quiet {
        eprintln!("{}", report.verbose());
        eprintln!("Productive-time ratio = {:.4}", runner.utilization());
        let g = runner.graph_stats();
        eprintln!(
            "Task graph per iteration: {} tasks, {} sync points (partition {}x{})",
            g.tasks, g.barriers, plan.nodal, plan.elements
        );
    }
    if let Some(t) = &tracer {
        if let Err(e) =
            obs::write_reports(&t.drain(), opts.trace.as_deref(), opts.metrics.as_deref())
        {
            eprintln!("failed to write trace/metrics: {e}");
            std::process::exit(1);
        }
    }
    println!("{}", RunReport::CSV_HEADER);
    println!("{}", report.csv_row());
}
