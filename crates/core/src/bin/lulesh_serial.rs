//! Serial LULESH binary: the golden-reference runner with the artifact's
//! CSV output format. It takes the flags every binary shares ([`Opts`])
//! and nothing else.

use lulesh_core::{serial, Cli, Domain, Opts, RunReport};
use std::time::Instant;

fn main() {
    let opts = Opts::from_env("lulesh-serial");

    // The golden reference still honours `--simd`: every width is
    // bit-identical, so wider lanes only speed the reference up.
    lulesh_core::simd::set_active(opts.simd);

    let domain = Domain::build(opts.size, opts.num_reg, opts.balance, opts.cost, opts.seed);
    let t0 = Instant::now();
    let state = match serial::run(&domain, opts.max_cycles) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("run failed: {e}");
            std::process::exit(1);
        }
    };
    let elapsed = t0.elapsed();

    let report = RunReport::collect(&domain, &state, 1, elapsed);
    if !opts.quiet {
        eprintln!("{}", report.verbose());
    }
    println!("{}", RunReport::CSV_HEADER);
    println!("{}", report.csv_row());
}

#[cfg(test)]
mod tests {
    use super::*;

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
        ];
        let usage = Opts::usage("lulesh-serial");
        assert_eq!(usage.matches(" [--").count(), own.len(), "{usage}");
        for args in own {
            assert!(
                usage.contains(&format!("[{}", args[0])),
                "{args:?} not in {usage}"
            );
            assert!(Opts::parse(args).is_ok(), "{args:?}");
            // Every spelling: `--x v`, `--x=v` and `-x v`.
            if let [flag, value] = args {
                assert!(
                    Opts::parse(&[format!("{flag}={value}")]).is_ok(),
                    "{args:?}"
                );
                assert!(Opts::parse(&[&flag[1..], value]).is_ok(), "{args:?}");
            }
        }
        let others = [
            &["--threads", "2"][..],
            &["--hpx:threads", "2"],
            &["-t", "2"],
            &["--trace", "t.json"],
            &["--metrics", "m.csv"],
            &["--partition", "table"],
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
            assert!(Opts::parse(args).is_err(), "{args:?}");
        }
    }
}
