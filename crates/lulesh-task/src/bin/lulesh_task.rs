//! Many-task LULESH binary — the paper's implementation. CLI matches the
//! artifact (`--s`, `--r`, `--i`, `--q`, `--hpx:threads`/`--threads`),
//! CSV output format `size,regions,iterations,threads,runtime,result`,
//! plus `--partition fixed:N` fixing the run's partition size; without it
//! the run uses `PartitionPlan::for_size_threads` (a rule of `--s` and
//! `--threads`).

use lulesh_core::opts::{opt, pos, put, Flag};
use lulesh_core::{Cli, Domain, Opts, RunReport};
use lulesh_task::{Features, PartitionPlan, TaskLulesh};
use obs::Tracer;
use std::sync::Arc;
use std::time::Instant;

/// `--partition fixed:N`: one explicit partition size for both phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fixed(usize);

impl std::str::FromStr for Fixed {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.strip_prefix("fixed:") {
            Some(n) => pos(Some(n)).map(Fixed),
            None => Err("expected fixed:N".into()),
        }
    }
}

/// The shared flags plus `--threads`, `--trace`, `--metrics` and
/// `--partition`.
#[derive(Default)]
struct Args {
    opts: Opts,
    threads: Option<usize>,
    trace: Option<String>,
    metrics: Option<String>,
    partition: Option<Fixed>,
}

impl Cli for Args {
    fn flags() -> Vec<Flag<Self>> {
        vec![
            Flag::new("threads|hpx:threads|t", "N", |a, v| {
                put(&mut a.threads, pos(v).map(Some))
            }),
            Flag::new("trace", "FILE.json", |a, v| put(&mut a.trace, opt(v))),
            Flag::new("metrics", "FILE.csv", |a, v| put(&mut a.metrics, opt(v))),
            Flag::new("partition", "fixed:N", |a, v| put(&mut a.partition, opt(v))),
        ]
    }

    fn opts(&mut self) -> &mut Opts {
        &mut self.opts
    }
}

fn main() {
    let args = Args::from_env("lulesh-task");
    let (opts, threads) = (&args.opts, args.threads.unwrap_or(1));

    let domain = Arc::new(Domain::build(
        opts.size,
        opts.num_reg,
        opts.balance,
        opts.cost,
        opts.seed,
    ));
    lulesh_core::simd::set_active(opts.simd);
    let plan = match args.partition {
        None => PartitionPlan::for_size_threads(opts.size, threads),
        Some(Fixed(n)) => PartitionPlan::fixed(n, n),
    };

    // One lane per worker plus a control lane for iteration spans.
    let tracer =
        (args.trace.is_some() || args.metrics.is_some()).then(|| Tracer::shared(threads + 1));
    let runner = match &tracer {
        Some(t) => TaskLulesh::with_tracer(threads, Features::default(), Arc::clone(t), 0),
        None => TaskLulesh::new(threads),
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

    let report = RunReport::collect(&domain, &state, threads, elapsed);
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
            obs::write_reports(&t.drain(), args.trace.as_deref(), args.metrics.as_deref())
        {
            eprintln!("failed to write trace/metrics: {e}");
            std::process::exit(1);
        }
    }
    println!("{}", RunReport::CSV_HEADER);
    println!("{}", report.csv_row());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_modes() {
        let o = Args::parse(&[] as &[&str]).unwrap();
        assert_eq!(o.partition, None);
        let o = Args::parse(&["--partition=fixed:2048"]).unwrap();
        assert_eq!(o.partition, Some(Fixed(2048)));
        assert!(Args::parse(&["--partition", "table"]).is_err());
        assert!(Args::parse(&["--partition", "auto"]).is_err());
        assert!(Args::parse(&["--partition", "bogus"]).is_err());
        assert!(Args::parse(&["--partition", "fixed:0"]).is_err());
        assert!(Args::parse(&["--partition", "fixed:x"]).is_err());
        assert!(Args::parse(&["--partition"]).is_err());
    }

    #[test]
    fn accepts_exactly_its_own_flags() {
        let own = [
            &["--s", "6"][..],
            &["--r", "2"],
            &["--i", "3"],
            &["--b", "2"],
            &["--c", "2"],
            &["--q"],
            &["--seed", "1"],
            &["--simd", "scalar"],
            &["--threads", "2"],
            &["--trace", "t.json"],
            &["--metrics", "m.csv"],
            &["--partition", "fixed:8"],
        ];
        let usage = Args::usage("lulesh-task");
        assert_eq!(usage.matches(" [--").count(), own.len(), "{usage}");
        for args in own {
            assert!(
                usage.contains(&format!("[{}", args[0])),
                "{args:?} not in {usage}"
            );
            assert!(Args::parse(args).is_ok(), "{args:?}");
            // Every spelling: `--x v`, `--x=v` and `-x v`.
            if let [flag, value] = args {
                assert!(
                    Args::parse(&[format!("{flag}={value}")]).is_ok(),
                    "{args:?}"
                );
                assert!(Args::parse(&[&flag[1..], value]).is_ok(), "{args:?}");
            }
        }
        let others = [
            &["--trace-dir", "d"][..],
            &["--transport", "tcp"],
            &["--recv-deadline-ms", "100"],
            &["--grid", "1x1x2"],
            &["--ranks", "2"],
            &["--rank", "0"],
            &["--merge-only"],
            &["--live-metrics"],
            &["--die-at", "0:1"],
            &["--slow-rank", "0:1"],
            &["--ckpt-dir", "d"],
            &["--ckpt-period", "2"],
            &["--resume-cycle", "3"],
            &["--respawn"],
        ];
        for args in others {
            assert!(Args::parse(args).is_err(), "{args:?}");
        }
    }
}
