//! Multi-domain LULESH binary (the paper's future-work extension): run the
//! global problem decomposed over a 3-D rank grid with one thread per rank
//! and MPI-style halo exchange (27-neighbour: faces, edges, corners). Its
//! command line is [`multidom::cli::Args`]: the artifact's flags, plus
//! `--grid NXxNYxNZ` (every extent must divide `--s`), `--ranks N`
//! (shorthand for `--grid 1x1xN`, the ζ-slab chain) and
//! `--transport channel|tcp[:HOST:PORT]`, among others.
//!
//! With `--transport channel` (the default) all ranks live in this process
//! and exchange halos over in-memory channels. With `--transport tcp` the
//! binary becomes a **launcher**: it picks a free loopback port, re-spawns
//! itself once per rank with `--rank R --transport tcp:ADDR`, waits for
//! every worker, and verifies the bootstrap port was released. A worker
//! invocation (`--rank` present) connects to the root address, runs its
//! slab over real sockets, and exits; rank 0 prints the report. Point
//! `--transport tcp:HOST:PORT` at a routable address and start the workers
//! by hand to span multiple machines.
//!
//! `--threads N` picks how each rank computes a step: with N = 1 (the
//! default) the task driver's step list walked in order on the rank's
//! thread, with N > 1 the same list as one task graph per rank on N
//! workers, its partition derived from the rank's sub-brick and its halo
//! exchanges stages of the graph. Either way every rank runs the same rank
//! loop, so every other flag applies to both.
//!
//! `--trace-dir DIR` makes every rank write a clock-aligned spans file
//! into DIR; the launcher (or the in-process run) then merges them into
//! `DIR/merged.trace.json` and writes the critical-path / overhead
//! analysis to `DIR/analysis.json`. `--merge-only --trace-dir DIR`
//! re-runs just that merge + analysis over an existing directory (for
//! multi-host runs whose spans files were gathered by hand). A failed
//! rank writes the same spans file, ending in its `parcel-error-*` spans,
//! and exits nonzero; the merge is skipped and that file is the
//! post-mortem.

use lulesh_core::{Cli, RunReport};
use lulesh_task::PartitionPlan;
use multidom::cli::{Args, TransportMode};
use multidom::{recovery, threaded, Decomposition, RankExec, RunPlan};
use obs::dist::RankTrace;
use obs::Tracer;
use std::path::Path;
use std::time::{Duration, Instant};

fn main() {
    let args = Args::from_env("lulesh-multidom");
    if args.merge_only {
        // Multi-host runs write each rank's spans file on its own
        // machine; after gathering them into one directory this re-runs
        // the merge + analysis without touching the simulation.
        let dir = args.trace_dir.expect("--merge-only needs --trace-dir");
        merge_and_report(&dir, args.opts.quiet);
        return;
    }
    // Applies to in-process ranks and TCP workers alike: the launcher
    // forwards `--simd` verbatim, so every worker re-activates the same
    // width.
    lulesh_core::simd::set_active(args.opts.simd);

    match (&args.transport, args.rank) {
        (TransportMode::Tcp(Some(addr)), Some(rank)) => run_worker(&args, rank, addr),
        (TransportMode::Tcp(addr), _) => launch_workers(&args, addr),
        (TransportMode::Channel, _) => run_in_process(&args),
    }
}

/// The run half of the CLI, for `decomp`: the parsed [`Args::plan`], task
/// ranks when `--threads` asks for more than one worker (partitioned for
/// the rank's sub-brick), and a tracer when any trace output was asked
/// for — a protocol lane per rank and a lane per task worker.
fn run_plan(args: &Args, decomp: Decomposition) -> RunPlan {
    let exec = match args.threads.unwrap_or(1) {
        1 => RankExec::Serial,
        threads => RankExec::Tasks {
            threads,
            partition: PartitionPlan::for_elems_threads(decomp.shape(0).num_elem(), threads),
        },
    };
    let traced = args.trace.is_some() || args.metrics.is_some() || args.trace_dir.is_some();
    RunPlan {
        trace: traced.then(|| Tracer::shared(exec.trace_lanes(decomp.ranks()))),
        exec,
        ..args.plan.clone()
    }
}

/// Rank `rank`'s trace lanes and their names: its protocol lane, then
/// its task workers' lanes.
fn rank_lanes(plan: &RunPlan, rank: usize, ranks: usize) -> Vec<(usize, String)> {
    let mut lanes = vec![(rank, format!("rank{rank}"))];
    let workers = plan.exec.worker_lanes(rank, ranks).enumerate();
    lanes.extend(workers.map(|(i, lane)| (lane, format!("rank{rank}-w{i}"))));
    lanes
}

/// Write one rank's spans file into `dir`, or exit nonzero.
fn write_rank_trace(
    dir: &str,
    rank: usize,
    ranks: usize,
    offset_ns: i64,
    lanes: Vec<(usize, String)>,
    spans: &[obs::Span],
) {
    let rt = RankTrace::from_spans(rank, ranks, rank, offset_ns, lanes, spans);
    if let Err(e) = obs::dist::write_rank_trace(Path::new(dir), &rt) {
        eprintln!("rank {rank}: failed to write rank trace: {e}");
        std::process::exit(1);
    }
}

/// The single-process run: every rank is a thread, halos go over
/// in-memory channels. With `--respawn` a rank death rolls every rank
/// back to the newest globally consistent checkpoint wave and reruns (one
/// injected kill per attempt) — the in-process analogue of the TCP
/// launcher's loop.
fn run_in_process(args: &Args) {
    let grid = args.rank_grid();
    let ranks = grid.ranks();
    let decomp = Decomposition::with_grid(args.opts.size, grid);
    let plan = run_plan(args, decomp);
    let t0 = Instant::now();
    let results = if args.respawn {
        let attempts = plan.faults.die_at.len() + 1;
        let report = recovery::run_with_recovery(decomp, args.sim(), &plan, attempts);
        if !args.opts.quiet {
            for c in &report.resumed_from {
                eprintln!("respawn: rank died, all ranks resumed from checkpoint cycle {c}");
            }
        }
        report.results
    } else {
        threaded::run(decomp, args.sim(), &plan)
    };
    let elapsed = t0.elapsed();
    let mut failed = false;
    for (r, res) in results.iter().enumerate() {
        if let Err(e) = res {
            eprintln!("rank {r}: run failed: {e}");
            failed = true;
        }
    }
    if let (false, Ok((d, state))) = (failed, &results[0]) {
        print_report(args, d, state, elapsed);
    }
    if let Some(t) = &plan.trace {
        let spans = t.drain();
        if let Err(e) = obs::write_reports(&spans, args.trace.as_deref(), args.metrics.as_deref()) {
            eprintln!("failed to write trace/metrics: {e}");
            std::process::exit(1);
        }
        if let Some(dir) = &args.trace_dir {
            // All ranks share this process's clock: offsets are exactly 0.
            for rank in 0..ranks {
                let lanes = rank_lanes(&plan, rank, ranks);
                let rank_spans: Vec<obs::Span> = spans
                    .iter()
                    .filter(|s| lanes.iter().any(|(l, _)| *l == s.worker))
                    .cloned()
                    .collect();
                write_rank_trace(dir, rank, ranks, 0, lanes, &rank_spans);
            }
            if !failed {
                merge_and_report(dir, args.opts.quiet);
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Merge the per-rank trace files in `dir` into `merged.trace.json`,
/// analyze them into `analysis.json`, print the overhead table, and exit
/// nonzero if the analysis fails its self-checks (attribution must sum to
/// wall-clock per rank; halo causality must hold after alignment).
fn merge_and_report(dir: &str, quiet: bool) {
    let fail = |msg: String| -> ! {
        eprintln!("{msg}");
        std::process::exit(1);
    };
    let traces = obs::dist::read_rank_traces(Path::new(dir))
        .unwrap_or_else(|e| fail(format!("trace merge: {e}")));
    let merged = obs::dist::merge(traces).unwrap_or_else(|e| fail(format!("trace merge: {e}")));
    let trace_path = Path::new(dir).join("merged.trace.json");
    if let Err(e) = std::fs::write(&trace_path, obs::dist::merged_chrome_trace(&merged)) {
        fail(format!("{}: {e}", trace_path.display()));
    }
    let analysis = obs::dist::analyze(&merged);
    let report_path = Path::new(dir).join("analysis.json");
    if let Err(e) = std::fs::write(&report_path, analysis.to_json()) {
        fail(format!("{}: {e}", report_path.display()));
    }
    if !quiet {
        eprintln!("{}", analysis.human_table());
        eprintln!(
            "merged trace: {} · report: {}",
            trace_path.display(),
            report_path.display()
        );
    }
    if let Err(e) = analysis.verify() {
        fail(format!("trace analysis failed verification: {e}"));
    }
}

/// Launcher: re-spawn this binary once per rank against a shared bootstrap
/// address, wait for all of them, and verify the port was released.
///
/// With `--respawn` (which needs `--ckpt-dir`) a failed fleet is not
/// fatal: [`recovery::restart`] finds the newest cycle where **every**
/// rank left a checksum-valid snapshot and the launcher relaunches all
/// ranks with `--resume-cycle C`, each attempt's workers getting the one
/// `--die-at` entry [`multidom::FaultPlan::attempt_kill`] leaves live.
fn launch_workers(args: &Args, addr: &Option<String>) {
    let ranks = args.rank_grid().ranks();
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("cannot locate own executable: {e}");
        std::process::exit(1);
    });
    // Forward the original CLI minus the launcher's own flags: the
    // transport is replaced with the resolved address, --ranks/--rank are
    // set per worker and the fault/restart trio comes from each fleet's
    // plan.
    let launcher_args: Vec<String> = std::env::args().skip(1).collect();
    let forwarded = Args::forwarded(&launcher_args);
    let mut last_addr = String::new();
    // One fleet under `plan`'s kill list and resume cycle; true when any
    // worker failed.
    let mut launch = |plan: &RunPlan| -> bool {
        let addr = match addr {
            Some(a) => a.clone(),
            None => {
                // Bind an ephemeral loopback port just to learn a free one,
                // release it, and hand the address to rank 0 to re-bind. A
                // fresh probe per fleet sidesteps rebind races after a
                // crashed one.
                let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap_or_else(|e| {
                    eprintln!("cannot bind a loopback port: {e}");
                    std::process::exit(1);
                });
                probe.local_addr().expect("probe address").to_string()
            }
        };
        last_addr = addr.clone();
        let kills = &plan.faults.die_at;
        let die: Vec<String> = kills.iter().map(|&(r, c)| format!("{r}:{c}")).collect();
        let children: Vec<_> = (0..ranks)
            .map(|r| {
                let mut cmd = std::process::Command::new(&exe);
                cmd.args(&forwarded)
                    .arg(format!("--ranks={ranks}"))
                    .arg(format!("--rank={r}"))
                    .arg(format!("--transport=tcp:{addr}"));
                if !die.is_empty() {
                    cmd.arg(format!("--die-at={}", die.join(",")));
                }
                if let Some(c) = plan.resil.resume_cycle {
                    cmd.arg(format!("--resume-cycle={c}"));
                }
                cmd.spawn().unwrap_or_else(|e| {
                    eprintln!("cannot spawn worker {r}: {e}");
                    std::process::exit(1);
                })
            })
            .collect();
        let mut failed = false;
        for (r, child) in children.into_iter().enumerate() {
            match child.wait_with_output() {
                Ok(out) if out.status.success() => {}
                Ok(out) => {
                    eprintln!("worker {r} exited with {}", out.status);
                    failed = true;
                }
                Err(e) => {
                    eprintln!("cannot wait for worker {r}: {e}");
                    failed = true;
                }
            }
        }
        failed
    };
    let failed = if args.respawn {
        let attempts = args.plan.faults.die_at.len() + 1;
        let report = recovery::restart(&args.plan, ranks, attempts, |attempt, plan| {
            match (attempt, plan.resil.resume_cycle) {
                (0, _) => {}
                (_, Some(c)) => {
                    eprintln!("respawn: relaunching all {ranks} ranks from checkpoint cycle {c}")
                }
                (_, None) => {
                    eprintln!("respawn: no consistent checkpoint yet, relaunching from scratch")
                }
            }
            let failed = launch(plan);
            (failed, failed)
        });
        report.results
    } else {
        launch(&args.plan)
    };
    if failed {
        std::process::exit(1);
    }
    // All workers are gone, so the bootstrap port must be re-bindable
    // (std sets SO_REUSEADDR on Unix, so TIME_WAIT does not interfere —
    // a failure here means a worker leaked a live listener).
    if let Err(e) = std::net::TcpListener::bind(&last_addr) {
        eprintln!("bootstrap port {last_addr} still held after shutdown: {e}");
        std::process::exit(1);
    }
    // Workers wrote one rank<R>.spans.json each (--trace-dir was forwarded
    // verbatim); merge them now that every file is complete.
    if let Some(dir) = &args.trace_dir {
        merge_and_report(dir, args.opts.quiet);
    }
}

/// One TCP worker: rank 0 binds the bootstrap address and accepts the
/// others; everyone runs their sub-brick through the same rank loop as
/// the in-process ranks and rank 0 prints the report.
fn run_worker(args: &Args, rank: usize, addr: &str) {
    let grid = args.rank_grid();
    let ranks = grid.ranks();
    let decomp = Decomposition::with_grid(args.opts.size, grid);
    let specs = grid.neighbor_specs();
    let plan = run_plan(args, decomp);
    let cfg = parcelnet::tcp::TcpConfig::with_deadline(plan.deadline);
    let net = if rank == 0 {
        let listener = std::net::TcpListener::bind(addr).unwrap_or_else(|e| {
            eprintln!("rank 0 cannot bind {addr}: {e}");
            std::process::exit(1);
        });
        parcelnet::tcp::root(listener, ranks, &specs[0], &cfg)
    } else {
        parcelnet::tcp::join(addr, rank, ranks, &specs[rank], &cfg)
    };
    let net = net.unwrap_or_else(|e| {
        eprintln!("rank {rank}: bootstrap failed: {e}");
        std::process::exit(1);
    });
    let t0 = Instant::now();
    let (result, offset_ns) = threaded::run_rank(decomp.shape(rank), net, args.sim(), &plan);
    let elapsed = t0.elapsed();
    if let (0, Ok((domain, state))) = (rank, &result) {
        print_report(args, domain, state, elapsed);
    }
    if let Some(t) = &plan.trace {
        // Per-process trace/metrics files get a `.rankR` suffix so workers
        // do not clobber each other.
        let spans = t.drain();
        let suffix = |p: &str| format!("{p}.rank{rank}");
        let trace = args.trace.as_deref().map(suffix);
        let metrics = args.metrics.as_deref().map(suffix);
        if let Err(e) = obs::write_reports(&spans, trace.as_deref(), metrics.as_deref()) {
            eprintln!("rank {rank}: failed to write trace/metrics: {e}");
            std::process::exit(1);
        }
        if let Some(dir) = &args.trace_dir {
            let lanes = rank_lanes(&plan, rank, ranks);
            write_rank_trace(dir, rank, ranks, offset_ns, lanes, &spans);
        }
    }
    if let Err(e) = result {
        eprintln!("rank {rank}: run failed: {e}");
        std::process::exit(1);
    }
}

/// The origin element lives on rank 0; report from there.
fn print_report(
    args: &Args,
    origin_domain: &lulesh_core::Domain,
    state: &lulesh_core::params::SimState,
    elapsed: Duration,
) {
    let (grid, size) = (args.rank_grid(), args.opts.size);
    let ranks = grid.ranks();
    let mut report = RunReport::collect(origin_domain, state, ranks, elapsed);
    // The origin rank's domain is one sub-brick; the report describes the
    // global problem (a 2x2x2 grid of s=6 must say 6, not 3).
    report.size = size;
    if !args.opts.quiet {
        eprintln!("{}", report.verbose());
        eprintln!(
            "ranks = {ranks} ({}x{}x{} grid of {}x{}x{} sub-bricks)",
            grid.nx,
            grid.ny,
            grid.nz,
            size / grid.nx,
            size / grid.ny,
            size / grid.nz
        );
    }
    println!("{}", RunReport::CSV_HEADER);
    println!("{}", report.csv_row());
}
