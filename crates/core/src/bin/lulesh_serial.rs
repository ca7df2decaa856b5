//! Serial LULESH binary: the golden-reference runner with the artifact's
//! CLI and CSV output format.

use lulesh_core::{serial, Domain, Opts, RunReport};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match Opts::parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            eprintln!("{}", Opts::usage("lulesh-serial"));
            std::process::exit(2);
        }
    };

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
