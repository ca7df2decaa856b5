//! Fork-join LULESH binary: the task driver's fused kernels, one statically
//! scheduled parallel region per chain, joined before the next starts. CSV
//! output matches the artifact; the thread count flag is `--threads`
//! (the reference uses OMP_NUM_THREADS).

use lulesh_core::opts::{opt, pos, put, Flag};
use lulesh_core::{Cli, Domain, Opts, RunReport};
use lulesh_omp::OmpLulesh;
use obs::Tracer;
use std::sync::Arc;
use std::time::Instant;

/// The shared flags plus `--threads`, `--trace` and `--metrics`.
#[derive(Default)]
struct Args {
    opts: Opts,
    threads: Option<usize>,
    trace: Option<String>,
    metrics: Option<String>,
}

impl Cli for Args {
    fn flags() -> Vec<Flag<Self>> {
        vec![
            Flag::new("threads|hpx:threads|t", "N", |a, v| {
                put(&mut a.threads, pos(v).map(Some))
            }),
            Flag::new("trace", "FILE.json", |a, v| put(&mut a.trace, opt(v))),
            Flag::new("metrics", "FILE.csv", |a, v| put(&mut a.metrics, opt(v))),
        ]
    }

    fn opts(&mut self) -> &mut Opts {
        &mut self.opts
    }
}

fn main() {
    let args = Args::from_env("lulesh-omp");
    let (opts, threads) = (&args.opts, args.threads.unwrap_or(1));

    // Every width is bit-identical, so this only changes speed.
    lulesh_core::simd::set_active(opts.simd);

    let domain = Domain::build(opts.size, opts.num_reg, opts.balance, opts.cost, opts.seed);
    // One lane per pool thread plus a control lane for iteration spans.
    let tracer =
        (args.trace.is_some() || args.metrics.is_some()).then(|| Tracer::shared(threads + 1));
    let mut runner = match &tracer {
        Some(t) => OmpLulesh::with_tracer(threads, Arc::clone(t), 0),
        None => OmpLulesh::new(threads),
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

    let report = RunReport::collect(&domain, &state, threads, elapsed);
    if !opts.quiet {
        eprintln!("{}", report.verbose());
        eprintln!("Productive-time ratio = {:.4}", runner.utilization());
    }
    if let Some(t) = &tracer {
        let spans = t.drain();
        if let Err(e) = obs::write_reports(&spans, args.trace.as_deref(), args.metrics.as_deref()) {
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
    fn artifact_style_flags() {
        let o = Args::parse(&["--s", "90", "--q", "--i", "770", "--hpx:threads=16"]).unwrap();
        assert_eq!(o.opts.size, 90);
        assert_eq!(o.opts.max_cycles, 770);
        assert_eq!(o.threads, Some(16));
        assert!(o.opts.quiet);
        assert_eq!(Args::parse(&["-t", "3"]).unwrap().threads, Some(3));
        assert!(Args::parse(&["--threads", "0"]).is_err());
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
        ];
        let usage = Args::usage("lulesh-omp");
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
            &["--partition", "table"][..],
            &["--trace-dir", "d"],
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
