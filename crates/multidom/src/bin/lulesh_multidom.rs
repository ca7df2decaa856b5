//! Multi-domain LULESH binary (the paper's future-work extension): run the
//! global problem decomposed over a 3-D rank grid with one thread per rank
//! and MPI-style halo exchange (27-neighbour: faces, edges, corners). CLI
//! matches the artifact, plus `--grid NXxNYxNZ` (every extent must divide
//! `--s`), `--ranks N` (shorthand for `--grid 1x1xN`, the ζ-slab chain)
//! and `--transport channel|tcp[:HOST:PORT]`.
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
//! `--trace-dir DIR` makes every rank write a clock-aligned spans file
//! into DIR; the launcher (or the in-process run) then merges them into
//! `DIR/merged.trace.json` and writes the critical-path / overhead
//! analysis to `DIR/analysis.json`. `--merge-only --trace-dir DIR`
//! re-runs just that merge + analysis over an existing directory (for
//! multi-host runs whose spans files were gathered by hand). A failed
//! rank writes the same spans file, ending in its `parcel-error-*` spans,
//! and exits nonzero; the merge is skipped and that file is the
//! post-mortem.

use lulesh_core::{Opts, RunReport, TransportMode};
use multidom::{recovery, threaded, Decomposition, FaultPlan, Grid3, RunPlan, SimArgs};
use obs::dist::RankTrace;
use obs::Tracer;
use std::path::Path;
use std::time::{Duration, Instant};

/// Pull `--flag N` / `--flag=N` out of `args` before the shared parser
/// sees it. Returns `None` when absent; exits on a malformed value.
fn extract_flag(args: &mut Vec<String>, name: &str) -> Option<usize> {
    let pos = args
        .iter()
        .position(|a| a.trim_start_matches('-').split('=').next() == Some(name))?;
    let (raw, consumed) = match args[pos].split_once('=') {
        Some((_, v)) => (v.to_string(), 1),
        None => (args.get(pos + 1).cloned().unwrap_or_default(), 2),
    };
    let val = raw.parse().unwrap_or_else(|_| {
        eprintln!("--{name} needs a non-negative integer (got '{raw}')");
        std::process::exit(2);
    });
    args.drain(pos..pos + consumed);
    Some(val)
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let launcher_args = args.clone();
    let ranks_flag = extract_flag(&mut args, "ranks");
    let rank = extract_flag(&mut args, "rank");
    let merge_only = args
        .iter()
        .position(|a| a == "--merge-only")
        .map(|i| args.remove(i))
        .is_some();
    let opts = match Opts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("{}", Opts::usage("lulesh-multidom"));
            eprintln!("extra flags: --ranks N (ζ slabs, i.e. --grid 1x1xN; default 2); --rank R (internal: run as TCP worker R); --merge-only (merge + analyze an existing --trace-dir, no run)");
            std::process::exit(2);
        }
    };
    if merge_only {
        // Multi-host runs write each rank's spans file on its own
        // machine; after gathering them into one directory this re-runs
        // the merge + analysis without touching the simulation.
        let Some(dir) = &opts.trace_dir else {
            eprintln!("--merge-only needs --trace-dir DIR");
            std::process::exit(2);
        };
        merge_and_report(dir, opts.quiet);
        return;
    }
    // `--grid NXxNYxNZ` decides the rank layout; `--ranks N` is the ζ-slab
    // shorthand. Giving both is fine if they agree on the rank count
    // (workers are spawned with both: --grid forwarded, --ranks appended).
    let grid = match &opts.grid {
        Some(g) => {
            if let Some(rf) = ranks_flag {
                if rf != g.ranks() {
                    eprintln!("--ranks {rf} contradicts --grid {g} ({} ranks)", g.ranks());
                    std::process::exit(2);
                }
            }
            Grid3::new(g.nx, g.ny, g.nz)
        }
        None => {
            let n = ranks_flag.unwrap_or(2);
            if n == 0 {
                eprintln!("--ranks must be positive");
                std::process::exit(2);
            }
            Grid3::new(1, 1, n)
        }
    };
    let ranks = grid.ranks();
    for (axis, n) in [("x", grid.nx), ("y", grid.ny), ("z", grid.nz)] {
        if opts.size % n != 0 {
            eprintln!(
                "every grid extent must divide --s (got {n} ranks along {axis}, --s {})",
                opts.size
            );
            std::process::exit(2);
        }
    }
    if let Some(r) = rank {
        if r >= ranks {
            eprintln!("--rank {r} out of range for {ranks} ranks");
            std::process::exit(2);
        }
    }
    // Applies to in-process ranks and TCP workers alike: the launcher
    // forwards `--simd` verbatim, so every worker re-activates the same
    // width.
    lulesh_core::simd::set_active(opts.simd);

    match (&opts.transport, rank) {
        (TransportMode::Channel, Some(_)) => {
            eprintln!("--rank only makes sense with --transport tcp:HOST:PORT");
            std::process::exit(2);
        }
        (TransportMode::Channel, None) => run_in_process(&opts, grid),
        (TransportMode::Tcp(addr), Some(rank)) => {
            let Some(addr) = addr else {
                eprintln!("a TCP worker needs the root address: --transport tcp:HOST:PORT");
                std::process::exit(2);
            };
            run_worker(&opts, grid, rank, addr);
        }
        (TransportMode::Tcp(addr), None) => launch_workers(&opts, grid, addr, &launcher_args),
    }
}

/// The problem half of the CLI (the run half is [`RunPlan::from_opts`]).
fn sim_args(opts: &Opts) -> SimArgs {
    SimArgs::new(
        opts.num_reg,
        opts.balance,
        opts.cost,
        opts.seed,
        opts.max_cycles,
    )
}

/// The run half of the CLI, for a job of `ranks` ranks: [`RunPlan::from_opts`]
/// plus a tracer when any trace output was asked for — a protocol lane per
/// rank, plus a `ranks + rank` comm lane per rank for TCP writer-thread
/// spans, so those never land on a protocol lane.
fn run_plan(opts: &Opts, ranks: usize) -> RunPlan {
    let traced = opts.trace.is_some() || opts.metrics.is_some() || opts.trace_dir.is_some();
    RunPlan {
        trace: traced.then(|| Tracer::shared(2 * ranks)),
        ..RunPlan::from_opts(opts)
    }
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
fn run_in_process(opts: &Opts, grid: Grid3) {
    let ranks = grid.ranks();
    let decomp = Decomposition::with_grid(opts.size, grid);
    let plan = run_plan(opts, ranks);
    let t0 = Instant::now();
    let results = if opts.respawn {
        if plan.resil.ckpt.is_none() {
            eprintln!("--respawn needs --ckpt-dir DIR");
            std::process::exit(2);
        }
        let report =
            recovery::run_with_recovery(decomp, sim_args(opts), &plan, opts.die_at.len() + 1);
        if !opts.quiet {
            for c in &report.resumed_from {
                eprintln!("respawn: rank died, all ranks resumed from checkpoint cycle {c}");
            }
        }
        report.results
    } else {
        threaded::run(decomp, sim_args(opts), &plan)
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
        print_report(opts, grid, d, state, elapsed);
    }
    if let Some(t) = &plan.trace {
        let spans = t.drain();
        if let Err(e) = obs::write_reports(&spans, opts.trace.as_deref(), opts.metrics.as_deref()) {
            eprintln!("failed to write trace/metrics: {e}");
            std::process::exit(1);
        }
        if let Some(dir) = &opts.trace_dir {
            // All ranks share this process's clock: offsets are exactly 0.
            for rank in 0..ranks {
                let rank_spans: Vec<obs::Span> =
                    spans.iter().filter(|s| s.worker == rank).cloned().collect();
                let lanes = vec![(rank, format!("rank{rank}"))];
                write_rank_trace(dir, rank, ranks, 0, lanes, &rank_spans);
            }
            if !failed {
                merge_and_report(dir, opts.quiet);
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
/// fatal: the launcher reads the checkpoint directory, finds the newest
/// cycle where **every** rank left a checksum-valid snapshot, and
/// relaunches all ranks with `--resume-cycle C`. Each attempt passes its
/// workers [`FaultPlan::attempt_kill`]: one `--die-at` entry, dropped when
/// it is at or before the resume point.
fn launch_workers(opts: &Opts, grid: Grid3, addr: &Option<String>, launcher_args: &[String]) {
    let ranks = grid.ranks();
    if opts.respawn && opts.ckpt_dir.is_none() {
        eprintln!("--respawn needs --ckpt-dir DIR");
        std::process::exit(2);
    }
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("cannot locate own executable: {e}");
        std::process::exit(1);
    });
    // Forward the original CLI minus any --transport token (replaced with
    // the resolved address) — --rank/--ranks were already stripped. The
    // fault/restart trio is re-derived per attempt rather than forwarded.
    let forwarded: Vec<&String> = {
        let mut skip_next = false;
        launcher_args
            .iter()
            .filter(|a| {
                if skip_next {
                    skip_next = false;
                    return false;
                }
                let flag = a.trim_start_matches('-').split('=').next().unwrap_or("");
                if matches!(
                    flag,
                    "transport" | "ranks" | "rank" | "die-at" | "resume-cycle"
                ) {
                    skip_next = !a.contains('=');
                    return false;
                }
                flag != "respawn"
            })
            .collect()
    };
    let max_attempts = if opts.respawn {
        opts.die_at.len() + 1
    } else {
        1
    };
    let faults = FaultPlan {
        die_at: opts.die_at.clone(),
        ..FaultPlan::NONE
    };
    let mut resume_cycle = opts.resume_cycle;
    let mut last_addr = String::new();
    for attempt in 0..max_attempts {
        let addr = match addr {
            Some(a) => a.clone(),
            None => {
                // Bind an ephemeral loopback port just to learn a free one,
                // release it, and hand the address to rank 0 to re-bind. A
                // fresh probe per attempt sidesteps rebind races after a
                // crashed fleet.
                let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap_or_else(|e| {
                    eprintln!("cannot bind a loopback port: {e}");
                    std::process::exit(1);
                });
                probe.local_addr().expect("probe address").to_string()
            }
        };
        last_addr = addr.clone();
        let kills = if opts.respawn {
            faults
                .attempt_kill(attempt, resume_cycle)
                .into_iter()
                .collect()
        } else {
            opts.die_at.clone()
        };
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
                if let Some(c) = resume_cycle {
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
        if !failed {
            break;
        }
        if attempt + 1 == max_attempts {
            std::process::exit(1);
        }
        // Roll back to the newest wave where every rank left a
        // checksum-valid snapshot; no wave at all means a cold restart.
        let dir = opts.ckpt_dir.as_ref().expect("checked above");
        resume_cycle = resil::latest_consistent_cycle(Path::new(dir), ranks);
        match resume_cycle {
            Some(c) => {
                eprintln!("respawn: relaunching all {ranks} ranks from checkpoint cycle {c}")
            }
            None => eprintln!("respawn: no consistent checkpoint yet, relaunching from scratch"),
        }
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
    if let Some(dir) = &opts.trace_dir {
        merge_and_report(dir, opts.quiet);
    }
}

/// One TCP worker: rank 0 binds the bootstrap address and accepts the
/// others; everyone runs their sub-brick through the same rank loop as
/// the in-process ranks and rank 0 prints the report.
fn run_worker(opts: &Opts, grid: Grid3, rank: usize, addr: &str) {
    let ranks = grid.ranks();
    let decomp = Decomposition::with_grid(opts.size, grid);
    let specs = grid.neighbor_specs();
    let plan = run_plan(opts, ranks);
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
    let (result, offset_ns) = threaded::run_rank(decomp.shape(rank), net, sim_args(opts), &plan);
    let elapsed = t0.elapsed();
    if let (0, Ok((domain, state))) = (rank, &result) {
        print_report(opts, grid, domain, state, elapsed);
    }
    if let Some(t) = &plan.trace {
        // Per-process trace/metrics files get a `.rankR` suffix so workers
        // do not clobber each other.
        let spans = t.drain();
        let suffix = |p: &str| format!("{p}.rank{rank}");
        let trace = opts.trace.as_deref().map(suffix);
        let metrics = opts.metrics.as_deref().map(suffix);
        if let Err(e) = obs::write_reports(&spans, trace.as_deref(), metrics.as_deref()) {
            eprintln!("rank {rank}: failed to write trace/metrics: {e}");
            std::process::exit(1);
        }
        if let Some(dir) = &opts.trace_dir {
            let lanes = vec![
                (rank, format!("rank{rank}")),
                (ranks + rank, format!("rank{rank}-comm")),
            ];
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
    opts: &Opts,
    grid: Grid3,
    origin_domain: &lulesh_core::Domain,
    state: &lulesh_core::params::SimState,
    elapsed: Duration,
) {
    let ranks = grid.ranks();
    let mut report = RunReport::collect(origin_domain, state, ranks, elapsed);
    // The origin rank's domain is one sub-brick; the report describes the
    // global problem (a 2x2x2 grid of s=6 must say 6, not 3).
    report.size = opts.size;
    if !opts.quiet {
        eprintln!("{}", report.verbose());
        eprintln!(
            "ranks = {ranks} ({}x{}x{} grid of {}x{}x{} sub-bricks)",
            grid.nx,
            grid.ny,
            grid.nz,
            opts.size / grid.nx,
            opts.size / grid.ny,
            opts.size / grid.nz
        );
    }
    println!("{}", RunReport::CSV_HEADER);
    println!("{}", report.csv_row());
}
