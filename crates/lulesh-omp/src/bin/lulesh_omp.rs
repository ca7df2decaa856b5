//! OpenMP-reference-style LULESH binary (fork-join execution with a barrier
//! after every parallel loop). CLI and CSV output match the artifact; the
//! thread count flag is `--threads` (the reference uses OMP_NUM_THREADS).

use lulesh_core::{Domain, Opts, RunReport};
use lulesh_omp::OmpLulesh;
use obs::Tracer;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Opts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("{}", Opts::usage("lulesh-omp"));
            std::process::exit(2);
        }
    };

    // No online tuner here: `--simd auto` resolves to the static sweet
    // spot. Every width is bit-identical, so this only changes speed.
    lulesh_core::simd::set_active(opts.simd);

    let domain = Domain::build(opts.size, opts.num_reg, opts.balance, opts.cost, opts.seed);
    // One lane per pool thread plus a control lane for iteration spans.
    let tracer =
        (opts.trace.is_some() || opts.metrics.is_some()).then(|| Tracer::shared(opts.threads + 1));
    let mut runner = match &tracer {
        Some(t) => OmpLulesh::with_tracer(opts.threads, Arc::clone(t), 0),
        None => OmpLulesh::new(opts.threads),
    };
    runner.reset_counters();
    let t0 = Instant::now();
    let state = match runner.run(&domain, opts.max_cycles) {
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
    }
    if let Some(t) = &tracer {
        let spans = t.drain();
        if let Err(e) = obs::write_reports(&spans, opts.trace.as_deref(), opts.metrics.as_deref()) {
            eprintln!("failed to write trace/metrics: {e}");
            std::process::exit(1);
        }
    }
    println!("{}", RunReport::CSV_HEADER);
    println!("{}", report.csv_row());
}
