//! Many-task LULESH binary — the paper's implementation. CLI matches the
//! artifact (`--s`, `--r`, `--i`, `--q`, `--hpx:threads`/`--threads`),
//! CSV output format `size,regions,iterations,threads,runtime,result`,
//! plus `--partition table|fixed:N` selecting the run's partition plan.

use lulesh_core::{Domain, Opts, PartitionMode, RunReport};
use lulesh_task::{first_touch_domain, Features, PartitionPlan, TaskLulesh};
use obs::Tracer;
use std::sync::Arc;
use std::time::Instant;
use taskrt::topology::Topology;
use taskrt::RuntimeConfig;

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

    let mut domain = Domain::build(opts.size, opts.num_reg, opts.balance, opts.cost, opts.seed);
    lulesh_core::simd::set_active(opts.simd);
    let plan = match opts.partition {
        PartitionMode::Table => PartitionPlan::for_size_threads(opts.size, opts.threads),
        PartitionMode::Fixed(n) => PartitionPlan::fixed(n, n),
    };

    // Resolve `--pin` against the live topology. Unknown node ids and
    // single-node hosts degrade to warnings — the same command line must
    // work across differently-sized machines.
    let pin = opts.pin.enabled().then(|| {
        let topo = Topology::detect();
        let res = topo.resolve_nodes(opts.pin.requested_nodes());
        for id in &res.unknown {
            eprintln!("pinning: node{id} not present on this host, ignoring");
        }
        if res.nodes.is_empty() || topo.num_nodes() < 2 {
            eprintln!(
                "pinning: single NUMA node on this host; workers get CPU \
                 affinity but placement and locality-aware stealing are moot"
            );
        }
        (topo, res.nodes)
    });

    // First-touch: re-place the domain arrays so each node's partition
    // block faults on the node whose workers will compute it.
    if let Some((topo, nodes)) = &pin {
        first_touch_domain(&mut domain, topo, nodes, plan);
    }
    let domain = Arc::new(domain);

    // One lane per worker plus a control lane for iteration spans.
    let tracer =
        (opts.trace.is_some() || opts.metrics.is_some()).then(|| Tracer::shared(opts.threads + 1));
    let mut config = RuntimeConfig::new(opts.threads);
    if let Some(t) = &tracer {
        config = config.tracer(Arc::clone(t), 0);
    }
    if let Some((topo, nodes)) = pin {
        config = config.pin(topo, nodes);
    }
    let runner = TaskLulesh::from_runtime_config(config, Features::default());
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
        if runner.is_pinned() {
            let rs = runner.runtime_stats();
            let per_node: Vec<String> = runner
                .node_steal_stats()
                .iter()
                .map(|s| format!("node{}: {} ({} remote)", s.node, s.steals, s.remote_steals))
                .collect();
            eprintln!(
                "NUMA: workers on nodes {:?}; steals {} ({} remote) [{}]{}",
                runner.worker_nodes(),
                rs.steals,
                rs.remote_steals,
                per_node.join(", "),
                if runner.pin_failures() > 0 {
                    format!("; {} workers failed to pin", runner.pin_failures())
                } else {
                    String::new()
                }
            );
        }
    }
    if let Some(t) = &tracer {
        let spans = t.drain();
        // Pinned runs publish the worker→node map as thread_name metadata
        // so trace viewers group lanes by NUMA node.
        let lane_names: Vec<(usize, String)> = if runner.is_pinned() {
            runner
                .worker_nodes()
                .iter()
                .enumerate()
                .map(|(w, n)| (w, format!("worker{w}@node{n}")))
                .chain(std::iter::once((opts.threads, "control".to_string())))
                .collect()
        } else {
            Vec::new()
        };
        if let Err(e) = obs::write_reports_with_lanes(
            &spans,
            opts.trace.as_deref(),
            opts.metrics.as_deref(),
            &lane_names,
        ) {
            eprintln!("failed to write trace/metrics: {e}");
            std::process::exit(1);
        }
    }
    println!("{}", RunReport::CSV_HEADER);
    println!("{}", report.csv_row());
}
