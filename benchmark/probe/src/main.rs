//! The layer probe: a traced run that times calls into each crate's
//! public functions **from outside** and attributes time per layer.
//! No instrumentation is added to the program; every span is recorded
//! here, around the call (see [`spans`]).
//!
//! The runner starts it (`runner trace` / `run --trace 1`) with one
//! workload's name (`--workload NAME --seed N --threads T --seconds S
//! --out DIR`; the inputs come from the table both share) and reads its
//! stdout:
//!
//! ```text
//! M <metric> <value> [<samples>]     one per-layer metric
//! F <section> <reason…>              a section failed; its metrics are absent
//! ```
//!
//! Sections are fail-soft: a panic or error in one is reported as an `F`
//! line and the others still run. The library functions called are
//! listed in `benchmark/README.md` ("dependency surface").

mod core_layer;
mod dist;
mod drivers;
mod runtimes;
mod spans;
#[allow(dead_code)]
#[path = "../../runner/src/stats.rs"]
mod stats;
mod vet;
#[allow(dead_code)]
#[path = "../../runner/src/workloads.rs"]
mod workloads;

use spans::Spans;
use std::path::PathBuf;
use std::time::Instant;

/// One workload's inputs, from the table shared with the runner.
pub struct Cfg {
    pub workload: String,
    pub size: usize,
    pub regions: usize,
    pub balance: i32,
    pub cost: i32,
    /// Iterations of one end-to-end block (the pinned count).
    pub iterations: u64,
    /// Pinned final origin energy of such a block, as the CSV prints it.
    pub energy: String,
    /// The program's seed (region assignment) behind the benchmark seed.
    pub seed: u64,
    pub threads: usize,
    /// Seconds this probe run may measure for.
    pub seconds: f64,
    pub out: PathBuf,
}

/// The value after `flag` on a command line.
pub fn flag_value(argv: &[String], flag: &str) -> Result<String, String> {
    argv.iter()
        .position(|a| a == flag)
        .and_then(|i| argv.get(i + 1))
        .cloned()
        .ok_or_else(|| format!("missing {flag}"))
}

/// The workload `--workload` names.
pub fn named_workload(argv: &[String]) -> Result<&'static workloads::Workload, String> {
    let name = flag_value(argv, "--workload")?;
    workloads::workload(&name).ok_or_else(|| format!("unknown workload '{name}'"))
}

impl Cfg {
    fn parse(argv: &[String]) -> Result<Self, String> {
        fn num<T: std::str::FromStr>(argv: &[String], flag: &str) -> Result<T, String> {
            let v = flag_value(argv, flag)?;
            v.parse().map_err(|_| format!("{flag}: bad value '{v}'"))
        }
        let w = named_workload(argv)?;
        let cfg = Self {
            workload: w.name.to_string(),
            size: w.size as usize,
            regions: w.regions as usize,
            balance: w.balance as i32,
            cost: w.cost as i32,
            iterations: w.iterations,
            energy: w.energy.to_string(),
            seed: w.program_seed(num(argv, "--seed")?),
            threads: num(argv, "--threads")?,
            seconds: num(argv, "--seconds")?,
            out: PathBuf::from(flag_value(argv, "--out")?),
        };
        if cfg.threads == 0 {
            return Err("--threads must be positive".into());
        }
        Ok(cfg)
    }

    pub fn build_domain(&self) -> lulesh_core::Domain {
        lulesh_core::Domain::build(self.size, self.regions, self.balance, self.cost, self.seed)
    }
}

/// What a section works with: the inputs, the span recorder, the metric
/// lines so far, and the clock the time budget is read from.
pub struct Ctx {
    pub cfg: Cfg,
    pub spans: Spans,
    lines: Vec<String>,
    started: Instant,
    /// Median serial iteration time, once the core section measured it;
    /// later sections size their iteration counts from it.
    pub serial_iter_s: Option<f64>,
}

impl Ctx {
    /// Report one metric. `samples` is stated for timings.
    pub fn metric(&mut self, name: &str, value: f64, samples: Option<usize>) {
        let n = samples.map_or(String::new(), |n| format!(" {n}"));
        self.lines.push(format!("M {name} {value}{n}"));
    }

    /// A domain of the workload's inputs, its construction inside a
    /// `core.domain_build` span.
    pub fn timed_domain(&mut self) -> lulesh_core::Domain {
        let cfg = &self.cfg;
        self.spans
            .time("core.domain_build", || cfg.build_domain())
            .0
    }

    /// Seconds of the budget not yet used.
    pub fn remaining_s(&self) -> f64 {
        self.cfg.seconds - self.started.elapsed().as_secs_f64()
    }

    /// Iterations of an in-process run that should take about `share_s`
    /// seconds at the serial iteration time, within `[lo, hi]`.
    pub fn iterations_for(&self, share_s: f64, lo: u64, hi: u64) -> u64 {
        let t = self.serial_iter_s.unwrap_or(0.05).max(1e-6);
        ((share_s / t) as u64).clamp(lo, hi)
    }
}

type Section = fn(&mut Ctx) -> Result<(), String>;

/// Run one section; on error or panic drop its partial metrics, close
/// its spans and report why.
fn run_section(ctx: &mut Ctx, name: &str, f: Section) {
    let mark = ctx.lines.len();
    let t0 = Instant::now();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(ctx)));
    let failure = match result {
        Ok(Ok(())) => None,
        Ok(Err(why)) => Some(why),
        Err(payload) => Some(
            payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .map_or_else(|| "panicked".to_string(), |m| format!("panicked: {m}")),
        ),
    };
    eprintln!(
        "probe: section {name:<10} {:>6.2} s  {}",
        t0.elapsed().as_secs_f64(),
        failure.as_deref().unwrap_or("ok")
    );
    if let Some(why) = failure {
        ctx.lines.truncate(mark);
        ctx.spans.unwind();
        let one_line = why.replace('\n', " ");
        ctx.lines.push(format!("F {name} {one_line}"));
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("vet-seeds") {
        if let Err(e) = vet::main(&argv[1..]) {
            eprintln!("probe vet-seeds: {e}");
            std::process::exit(2);
        }
        return;
    }
    let cfg = match Cfg::parse(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("probe: {e}");
            std::process::exit(2);
        }
    };
    let mut ctx = Ctx {
        cfg,
        spans: Spans::with_capacity(1 << 16),
        lines: Vec::new(),
        started: Instant::now(),
        serial_iter_s: None,
    };

    // Workload-shaped sections first (they size themselves from the
    // budget), then the fixed-size micro-probes of each layer.
    let sections: [(&str, Section); 11] = [
        ("core", core_layer::section),
        ("omp", drivers::omp_section),
        ("task", drivers::task_section),
        ("obs", drivers::obs_section),
        ("simsched", drivers::simsched_section),
        ("parutil", runtimes::parutil_section),
        ("taskrt", runtimes::taskrt_section),
        ("ompsim", runtimes::ompsim_section),
        ("multidom", dist::multidom_section),
        ("parcelnet", dist::parcelnet_section),
        ("resil", dist::resil_section),
    ];
    for (name, f) in sections {
        run_section(&mut ctx, name, f);
    }

    let trace_path = ctx.cfg.out.join(format!("trace_{}.json", ctx.cfg.workload));
    if let Err(e) = std::fs::write(&trace_path, ctx.spans.chrome_trace(&ctx.cfg.workload)) {
        eprintln!("probe: cannot write {}: {e}", trace_path.display());
    }
    eprintln!(
        "probe: {} spans → {} · {:.1} s of {:.1} s budget",
        ctx.spans.all().len(),
        trace_path.display(),
        ctx.started.elapsed().as_secs_f64(),
        ctx.cfg.seconds
    );
    for l in &ctx.lines {
        println!("{l}");
    }
}
