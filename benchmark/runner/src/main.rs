//! The repo's benchmark runner.
//!
//! ```text
//! runner run       [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! runner trace     [--workload W] [--seed N] [--seconds S]      (= run --trace 1)
//! runner selfcheck [--workload W] [--seed N] [--seconds S]
//! runner manifest                                   (prints BENCHMARK.json)
//! ```
//!
//! `run` builds the release CLI binaries, runs blocks of every driver on
//! the chosen workload (all four when none is named), checks the physics
//! of every block and prints every end-to-end metric by name with its
//! unit; the last line of stdout is the machine-readable result. With
//! `--trace 1` it instead prints the per-layer metrics, which come from a
//! separate `probe` process plus a short pass over all five drivers for
//! the `derived.*` ratios.

mod block;
mod e2e;
mod json;
mod provenance;
mod spec;
#[allow(dead_code)] // shared with the probe; each binary uses part of it
mod stats;
#[allow(dead_code)] // shared with the probe; each binary uses part of it
mod workloads;

use e2e::{run_pass, Pass};
use json::{array, number, object, quote};
use provenance::Host;
use spec::{Metric, END_TO_END, EXACT_REPEAT, RUN_SECONDS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;
use workloads::{Driver, Workload, WORKLOADS};

/// Rounds a timed pass never goes below, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// Rounds of `--smoke` and of the short pass inside a traced run.
const SMOKE_ROUNDS: usize = 2;
/// Share of a traced run's seconds spent on the pass over all drivers.
const TRACE_E2E_SHARE: f64 = 0.3;

struct Args {
    command: String,
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn usage() -> &'static str {
    "usage: runner run|trace|selfcheck|manifest [--workload NAME] [--seed N] \
     [--seconds S] [--trace 0|1] [--smoke]"
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut it = argv.iter();
    let command = it.next().ok_or("missing subcommand")?.clone();
    if !["run", "trace", "selfcheck", "manifest"].contains(&command.as_str()) {
        return Err(format!("unknown subcommand '{command}'"));
    }
    let mut a = Args {
        trace: command == "trace",
        command,
        workload: None,
        seed: 0,
        seconds: RUN_SECONDS,
        smoke: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                a.workload = Some(workloads::workload(&name).ok_or_else(|| {
                    let known: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload '{name}' (known: {})", known.join(", "))
                })?);
            }
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?
            }
            "--seconds" => {
                a.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s| (1..=60).contains(s))
                    .ok_or("--seconds needs a whole number from 1 to 60")?
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                }
            }
            "--smoke" => a.smoke = true,
            f => return Err(format!("unknown flag '{f}'")),
        }
    }
    Ok(a)
}

/// The checkout this runner was built in (`benchmark/runner/../..`).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."))
}

/// `<target>/release` for a manifest whose default target directory is
/// `default_target`: `CARGO_TARGET_DIR` wins, as it does for cargo. Only
/// the release profile is ever built or looked at.
fn release_dir(default_target: &Path) -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(t) => std::path::absolute(&t).unwrap_or_else(|_| PathBuf::from(t)),
        None => default_target.to_path_buf(),
    }
    .join("release")
}

fn cargo_build(manifest: &Path, packages: &[&str]) -> Result<(), String> {
    let mut cmd = Command::new("cargo");
    cmd.args(["build", "--release", "--offline", "--quiet", "--bins"])
        .arg("--manifest-path")
        .arg(manifest)
        .stdin(Stdio::null());
    for p in packages {
        cmd.args(["-p", p]);
    }
    let out = cmd.output().map_err(|e| format!("cannot run cargo: {e}"))?;
    if out.status.success() {
        Ok(())
    } else {
        // One line, so the reason fits a table cell and a JSON string.
        let err = String::from_utf8_lossy(&out.stderr);
        let first_error = err
            .lines()
            .find(|l| l.starts_with("error"))
            .unwrap_or("no error line on stderr");
        Err(format!(
            "cargo build of {} failed: {first_error}",
            manifest.display()
        ))
    }
}

/// Everything a run needs to know about its surroundings.
struct Ctx {
    root: PathBuf,
    out_dir: PathBuf,
    bin_dir: PathBuf,
    host: Host,
}

impl Ctx {
    /// Build the four CLI binaries in the release profile and locate them.
    fn prepare() -> Result<Self, String> {
        if cfg!(debug_assertions) {
            return Err(
                "the runner measures release builds only: run it with `cargo run --release`".into(),
            );
        }
        let root = repo_root();
        cargo_build(
            &root.join("Cargo.toml"),
            &["lulesh-core", "lulesh-omp", "lulesh-task", "multidom"],
        )?;
        let bin_dir = release_dir(&root.join("target"));
        for d in Driver::ALL {
            let bin = bin_dir.join(d.binary());
            if !bin.is_file() {
                return Err(format!("{} was not built", bin.display()));
            }
        }
        let out_dir = root.join("benchmark/out");
        std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
        let host = Host::detect(&root);
        Ok(Self {
            root,
            out_dir,
            bin_dir,
            host,
        })
    }

    fn write_out(&self, name: &str, text: &str) {
        let path = self.out_dir.join(name);
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
}

/// One reported metric: its declaration, its value, and why there is
/// none when there is none.
struct Reported {
    metric: Metric,
    value: Option<f64>,
    /// Sample count behind a timing, where the source states one.
    samples: Option<u64>,
    reason: Option<String>,
}

fn metrics_json(rows: &[Reported]) -> String {
    let fields: Vec<(&str, String)> = rows
        .iter()
        .map(|r| {
            let mut f = vec![("value", number(r.value)), ("unit", quote(r.metric.unit))];
            if let Some(why) = &r.reason {
                f.push(("reason", quote(why)));
            }
            (r.metric.name, object(&f))
        })
        .collect();
    object(&fields)
}

/// The machine-readable result: the last line of stdout.
fn result_line(correct: bool, attempted: usize, failed: usize, rows: &[Reported]) -> String {
    object(&[
        ("correct", correct.to_string()),
        ("attempted", attempted.max(1).to_string()),
        ("failed", failed.to_string()),
        ("metrics", metrics_json(rows)),
    ])
}

fn print_rows(rows: &[Reported]) {
    for r in rows {
        let value = match r.value {
            Some(v) if v.abs() >= 1e5 => format!("{v:.0}"),
            Some(v) => format!("{v:.6}"),
            None => "null".into(),
        };
        let mut notes = format!("{} is better", r.metric.better);
        if let Some(b) = r.metric.bound {
            notes.push_str(&format!(", bound {:.0}%", b * 100.0));
        }
        if let Some(n) = r.samples {
            notes.push_str(&format!(", n={n}"));
        }
        if let Some(why) = &r.reason {
            notes.push_str(&format!(", {why}"));
        }
        println!(
            "  {:<46} {:>16} {:<9} ({notes})",
            r.metric.name, value, r.metric.unit
        );
    }
}

/// What one workload's run produced.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    rows: Vec<Reported>,
}

impl Outcome {
    fn ok(&self) -> bool {
        self.correct && self.failed == 0 && self.rows.iter().all(|r| r.value.is_some())
    }
}

fn print_pass_header(p: &Pass, host: &Host, label: &str) {
    let w = p.workload;
    println!(
        "\n== {} [{label}] seed {} (program --seed {}) · T={} · {} rounds × {} drivers in {:.1} s",
        w.name,
        p.seed,
        w.program_seed(p.seed),
        p.threads,
        p.rounds,
        p.drivers.len(),
        p.seconds
    );
    println!("   why: {}", w.why);
    for d in &p.drivers {
        let par = d.driver.parallelism(w, p.threads);
        println!(
            "   {:<17} ×{par} (oversubscription {:.2}) · {} good blocks · loop s best {} p10 {} median {}{}",
            d.driver.key(),
            par as f64 / host.nproc as f64,
            d.loop_s.len(),
            stats::best(&d.loop_s).map_or("-".into(), |v| format!("{v:.4}")),
            stats::fast(&d.loop_s).map_or("-".into(), |v| format!("{v:.4}")),
            stats::median(&d.loop_s).map_or("-".into(), |v| format!("{v:.4}")),
            if d.failures.is_empty() {
                String::new()
            } else {
                format!(" · FAILED {}: {}", d.failures.len(), d.failures[0])
            }
        );
    }
}

/// The end-to-end run of one workload (tracing off).
fn end_to_end(ctx: &Ctx, w: &'static Workload, a: &Args) -> Outcome {
    let (budget, min_rounds) = if a.smoke {
        (Duration::ZERO, SMOKE_ROUNDS)
    } else {
        (Duration::from_secs(a.seconds), MIN_ROUNDS)
    };
    let pass = run_pass(
        w,
        &Driver::ALL,
        &ctx.bin_dir,
        ctx.host.threads(),
        a.seed,
        budget,
        min_rounds,
    );
    let values = pass.end_to_end();
    let rows: Vec<Reported> = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, (name, value, blocks))| {
            debug_assert_eq!(m.name, name);
            Reported {
                metric: *m,
                value,
                samples: Some(blocks as u64),
                reason: value.is_none().then(|| "no good block".to_string()),
            }
        })
        .collect();
    let label = if a.smoke {
        "SMOKE: 2 blocks per driver, not comparable"
    } else {
        "end-to-end, tracing off"
    };
    let failed_frac = pass.failed() as f64 / pass.attempted() as f64;
    print_pass_header(&pass, &ctx.host, label);
    print_rows(&rows);
    println!(
        "  {:<46} {:>16.6} {:<9} (lower is better, bound 0, {} of {} blocks)",
        "failed_frac",
        failed_frac,
        "fraction",
        pass.failed(),
        pass.attempted()
    );
    ctx.write_out(
        &format!("e2e_{}.json", w.name),
        &format!(
            "{}\n",
            object(&[
                ("comparable", (!a.smoke).to_string()),
                ("host", ctx.host.to_json()),
                ("pass", provenance::pass_json(&pass, &ctx.host)),
                ("metrics", metrics_json(&rows)),
                ("failed_frac", number(Some(failed_frac))),
            ])
        ),
    );
    Outcome {
        correct: pass.failed() == 0,
        attempted: pass.attempted(),
        failed: pass.failed(),
        rows,
    }
}

/// What the probe process reported: values by metric name, and the
/// sections that failed with their reasons.
#[derive(Default)]
struct ProbeReport {
    values: BTreeMap<String, (f64, Option<u64>)>,
    failed_sections: Vec<(String, String)>,
}

impl ProbeReport {
    /// The value and sample count of `name`, or why there is none.
    fn lookup(&self, name: &str) -> Result<(f64, Option<u64>), String> {
        if let Some(&found) = self.values.get(name) {
            return Ok(found);
        }
        let section = name.split('.').next().unwrap_or(name);
        Err(self
            .failed_sections
            .iter()
            .find(|(s, _)| s == section)
            .map_or_else(
                || "not reported by the probe".to_string(),
                |(s, why)| format!("section {s} failed: {why}"),
            ))
    }
}

/// The probe speaks lines: `M <name> <value> [<samples>]` for a metric,
/// `F <section> <reason…>` for a section that failed. Anything else is
/// commentary.
fn parse_probe_output(stdout: &str) -> ProbeReport {
    let mut r = ProbeReport::default();
    for line in stdout.lines() {
        let mut f = line.split_whitespace();
        match f.next() {
            Some("M") => {
                let (Some(name), Some(Ok(v))) = (f.next(), f.next().map(str::parse::<f64>)) else {
                    continue;
                };
                let n = f.next().and_then(|s| s.parse().ok());
                r.values.insert(name.to_string(), (v, n));
            }
            Some("F") => {
                if let Some(section) = f.next() {
                    let why: Vec<&str> = f.collect();
                    r.failed_sections.push((section.to_string(), why.join(" ")));
                }
            }
            _ => {}
        }
    }
    r
}

/// Build and run the probe on one workload. Fail-soft: any failure here
/// becomes a reason attached to every per-layer metric it leaves without
/// a value, and the run goes on.
fn run_probe(ctx: &Ctx, w: &Workload, a: &Args, seconds: f64) -> Result<ProbeReport, String> {
    let manifest = ctx.root.join("benchmark/Cargo.toml");
    cargo_build(&manifest, &["probe"])?;
    let probe = release_dir(&ctx.root.join("benchmark/target")).join("probe");
    let mut cmd = Command::new(&probe);
    cmd.args(["--workload", w.name])
        .args(["--seed", &a.seed.to_string()])
        .args(["--threads", &ctx.host.threads().to_string()])
        .args(["--seconds", &format!("{seconds:.1}")])
        .arg("--out")
        .arg(&ctx.out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    let out = cmd
        .output()
        .map_err(|e| format!("cannot run {}: {e}", probe.display()))?;
    let report = parse_probe_output(&String::from_utf8_lossy(&out.stdout));
    if !out.status.success() && report.values.is_empty() {
        return Err(format!("probe exited with {}", out.status));
    }
    Ok(report)
}

/// The traced run of one workload: a short pass over all five drivers for
/// the `derived.*` ratios, then the probe for everything else.
fn traced(ctx: &Ctx, w: &'static Workload, a: &Args) -> Outcome {
    let e2e_budget = Duration::from_secs_f64(a.seconds as f64 * TRACE_E2E_SHARE);
    let pass = run_pass(
        w,
        &Driver::ALL,
        &ctx.bin_dir,
        ctx.host.threads(),
        a.seed,
        e2e_budget,
        SMOKE_ROUNDS,
    );
    print_pass_header(&pass, &ctx.host, "traced run: short pass over all drivers");
    let derived: BTreeMap<String, Option<f64>> = pass.derived().into_iter().collect();

    let probe_seconds = (a.seconds as f64 - pass.seconds).max(a.seconds as f64 * 0.5);
    let probe = run_probe(ctx, w, a, probe_seconds);
    let rows: Vec<Reported> = spec::per_layer()
        .iter()
        .map(|m| {
            // From the pass over all drivers where it has the name, from
            // the probe otherwise.
            let found = match derived.get(m.name) {
                Some(v) => v
                    .map(|v| (v, Some(pass.rounds as u64)))
                    .ok_or_else(|| "no good block".to_string()),
                None => probe
                    .as_ref()
                    .map_err(|why| format!("probe unavailable: {why}"))
                    .and_then(|r| r.lookup(m.name)),
            };
            let (value, samples, reason) = match found {
                Ok((v, n)) if v.is_finite() => (Some(v), n, None),
                Ok((v, _)) => (None, None, Some(format!("not a finite number: {v}"))),
                Err(why) => (None, None, Some(why)),
            };
            Reported {
                metric: *m,
                value,
                samples,
                reason,
            }
        })
        .collect();
    println!("  per-layer metrics (probe: tracing on, never used for end-to-end numbers):");
    print_rows(&rows);
    ctx.write_out(
        &format!("layers_{}.json", w.name),
        &format!(
            "{}\n",
            object(&[
                ("host", ctx.host.to_json()),
                ("pass", provenance::pass_json(&pass, &ctx.host)),
                ("metrics", metrics_json(&rows)),
            ])
        ),
    );
    let probe_ok = matches!(&probe, Ok(r) if r.failed_sections.is_empty());
    Outcome {
        correct: pass.failed() == 0 && probe_ok,
        attempted: pass.attempted(),
        failed: pass.failed(),
        rows,
    }
}

fn chosen(a: &Args) -> Vec<&'static Workload> {
    match a.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    }
}

fn cmd_run(a: &Args) -> Result<bool, String> {
    let ctx = Ctx::prepare()?;
    println!("{}", ctx.host.summary());
    let mut all_ok = true;
    let mut lines = Vec::new();
    for w in chosen(a) {
        let o = if a.trace {
            traced(&ctx, w, a)
        } else {
            end_to_end(&ctx, w, a)
        };
        all_ok &= o.ok();
        lines.push((
            w.name,
            result_line(o.correct, o.attempted, o.failed, &o.rows),
        ));
    }
    if !all_ok {
        println!("\nFAILED: a block failed its physics pin or a metric has no value (see above)");
    }
    println!();
    // One named workload: the bare result object. All of them: one object
    // per workload, keyed by name.
    match lines.as_slice() {
        [(_, only)] if a.workload.is_some() => println!("{only}"),
        _ => println!("{}", object(&lines)),
    }
    Ok(all_ok)
}

/// A/A: the same binaries measured twice must agree within the
/// benchmark's own bounds, and the counts that repeat exactly must.
fn cmd_selfcheck(a: &Args) -> Result<bool, String> {
    let ctx = Ctx::prepare()?;
    println!("{}", ctx.host.summary());
    let mut ok = true;
    let mut report = Vec::new();
    for w in chosen(a) {
        let (first, second) = (end_to_end(&ctx, w, a), end_to_end(&ctx, w, a));
        ok &= first.ok() && second.ok();
        println!("\n-- selfcheck {}: |a − b| ÷ a against the bound", w.name);
        for (x, y) in first.rows.iter().zip(&second.rows) {
            let bound = x.metric.bound.expect("end-to-end metrics carry a bound");
            let (Some(va), Some(vb)) = (x.value, y.value) else {
                println!("  {:<28} no value", x.metric.name);
                ok = false;
                continue;
            };
            let d = stats::rel_diff(va, vb);
            let pass = d <= bound;
            ok &= pass;
            println!(
                "  {:<28} a={va:<14.6} b={vb:<14.6} diff {:>6.2}%  bound {:>4.0}%  {}",
                x.metric.name,
                d * 100.0,
                bound * 100.0,
                if pass { "ok" } else { "EXCEEDED" }
            );
            report.push(object(&[
                ("workload", quote(w.name)),
                ("metric", quote(x.metric.name)),
                ("a", number(Some(va))),
                ("b", number(Some(vb))),
                ("rel_diff", number(Some(d))),
                ("bound", number(Some(bound))),
            ]));
        }
        let (ta, tb) = (traced(&ctx, w, a), traced(&ctx, w, a));
        println!("\n-- selfcheck {}: counts that must repeat exactly", w.name);
        for name in EXACT_REPEAT {
            let find = |o: &Outcome| {
                o.rows
                    .iter()
                    .find(|r| r.metric.name == name)
                    .and_then(|r| r.value)
            };
            let (va, vb) = (find(&ta), find(&tb));
            let same = va.is_some() && va == vb;
            ok &= same;
            println!(
                "  {name:<46} {} vs {}  {}",
                number(va),
                number(vb),
                if same { "identical" } else { "DIFFER" }
            );
        }
    }
    ctx.write_out("selfcheck.json", &format!("{}\n", array(&report)));
    println!("\nselfcheck: {}", if ok { "PASS" } else { "FAIL" });
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let done = match args.command.as_str() {
        "manifest" => {
            print!("{}", spec::manifest_json());
            Ok(true)
        }
        "selfcheck" => cmd_selfcheck(&args),
        _ => cmd_run(&args),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark cannot run: {e}");
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&argv(
            "run --workload paper_s45 --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.unwrap().name, "paper_s45");
        assert_eq!((a.seed, a.seconds, a.trace, a.smoke), (7, 12, true, false));
        assert!(parse_args(&argv("trace")).unwrap().trace);
        assert!(parse_args(&argv("run --smoke")).unwrap().smoke);
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "bogus",
            "run --workload nope",
            "run --seconds 0",
            "run --seconds 61",
            "run --trace 2",
            "run --seed",
            "run --what",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "'{bad}' must be rejected");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_every_metric_once() {
        let rows: Vec<Reported> = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, m)| Reported {
                metric: *m,
                value: Some(1.5 + i as f64),
                samples: None,
                reason: None,
            })
            .collect();
        let line = result_line(true, 40, 0, &rows);
        assert!(line.starts_with(r#"{"correct": true, "attempted": 40, "failed": 0, "metrics": {"#));
        assert!(!line.contains('\n'));
        for m in &END_TO_END {
            let key = format!("{}: {{\"value\": ", quote(m.name));
            assert_eq!(line.matches(&key).count(), 1, "{}", m.name);
        }
        let at = END_TO_END.iter().position(|m| m.name == "setup_s").unwrap();
        let setup = format!(
            r#""setup_s": {{"value": {}, "unit": "s"}}"#,
            1.5 + at as f64
        );
        assert!(line.contains(&setup), "{line}");
    }

    #[test]
    fn a_missing_value_is_null_with_its_reason() {
        let rows = vec![Reported {
            metric: spec::per_layer()[0],
            value: None,
            samples: None,
            reason: Some("section core failed: boom".into()),
        }];
        let line = result_line(false, 0, 0, &rows);
        assert!(
            line.contains(r#""attempted": 1"#),
            "attempted is at least 1"
        );
        assert!(line
            .contains(r#"{"value": null, "unit": "ms", "reason": "section core failed: boom"}"#));
    }

    #[test]
    fn probe_lines_are_parsed_and_noise_is_ignored() {
        let r = parse_probe_output(
            "hello\nM core.iter_us 123.5 100\nM resil.snapshot_bytes 4096\nF taskrt worker panicked: boom\nM broken\n",
        );
        assert_eq!(r.values["core.iter_us"], (123.5, Some(100)));
        assert_eq!(r.values["resil.snapshot_bytes"], (4096.0, None));
        assert_eq!(
            r.failed_sections,
            vec![("taskrt".to_string(), "worker panicked: boom".to_string())]
        );
        assert_eq!(r.values.len(), 2);
    }
}
