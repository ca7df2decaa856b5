//! Where and how a result was measured: recorded with every output so a
//! number is never read without its host, toolchain and block schedule.

use crate::e2e::Pass;
use crate::json::{array, number, object, quote};
use std::path::Path;
use std::process::Command;

/// Facts about the host and toolchain, gathered once per process.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    /// `(level+type, size)` per cache of cpu0, e.g. `("L2 Unified", "4096K")`.
    pub caches: Vec<(String, String)>,
    pub rustc: String,
    pub git_commit: String,
}

fn first_line_of(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok().filter(|o| o.status.success())?;
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

fn read_trimmed(path: &Path) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

impl Host {
    /// `root` is the checkout; it need not be a git repository.
    pub fn detect(root: &Path) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let mut caches = Vec::new();
        for i in 0..8 {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let dir = Path::new(&dir);
            let (Some(level), Some(kind), Some(size)) = (
                read_trimmed(&dir.join("level")),
                read_trimmed(&dir.join("type")),
                read_trimmed(&dir.join("size")),
            ) else {
                continue;
            };
            caches.push((format!("L{level} {kind}"), size));
        }
        let rustc = first_line_of(Command::new("rustc").arg("--version"))
            .unwrap_or_else(|| "unknown".into());
        let git_commit = first_line_of(
            Command::new("git")
                .arg("-C")
                .arg(root)
                .args(["rev-parse", "HEAD"])
                .stderr(std::process::Stdio::null()),
        )
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
        Self {
            nproc,
            cpu_model,
            caches,
            rustc,
            git_commit,
        }
    }

    /// Threads (or ranks) a block may use: `min(2, nproc)`.
    pub fn threads(&self) -> usize {
        self.nproc.min(2)
    }

    pub fn to_json(&self) -> String {
        let caches: Vec<String> = self
            .caches
            .iter()
            .map(|(k, v)| object(&[("cache", quote(k)), ("size", quote(v))]))
            .collect();
        object(&[
            ("nproc", self.nproc.to_string()),
            ("cpu_model", quote(&self.cpu_model)),
            ("caches", array(&caches)),
            ("rustc", quote(&self.rustc)),
            ("git_commit", quote(&self.git_commit)),
            ("profile", quote("release")),
        ])
    }

    /// One line for the printed report.
    pub fn summary(&self) -> String {
        let caches: Vec<String> = self
            .caches
            .iter()
            .map(|(k, v)| format!("{k} {v}"))
            .collect();
        format!(
            "host: {} · nproc {} · caches [{}] · {} · commit {} · profile release",
            self.cpu_model,
            self.nproc,
            caches.join(", "),
            self.rustc,
            self.git_commit
        )
    }
}

fn samples(v: &[f64]) -> String {
    array(&v.iter().map(|x| number(Some(*x))).collect::<Vec<_>>())
}

/// The schedule and raw samples of one pass: who ran, how wide, how often, in what order.
pub fn pass_json(p: &Pass, host: &Host) -> String {
    let drivers: Vec<String> = p
        .drivers
        .iter()
        .map(|d| {
            let par = d.driver.parallelism(p.workload, p.threads);
            object(&[
                ("driver", quote(d.driver.key())),
                ("parallelism", par.to_string()),
                (
                    "oversubscription",
                    number(Some(par as f64 / host.nproc as f64)),
                ),
                ("good_blocks", d.loop_s.len().to_string()),
                ("loop_s", samples(&d.loop_s)),
                ("setup_s", samples(&d.setup_s)),
                ("cpu_s", samples(&d.cpu_s)),
                (
                    "failures",
                    array(&d.failures.iter().map(|f| quote(f)).collect::<Vec<_>>()),
                ),
            ])
        })
        .collect();
    let order: Vec<String> = p.drivers.iter().map(|d| quote(d.driver.key())).collect();
    object(&[
        ("workload", quote(p.workload.name)),
        ("seed", p.seed.to_string()),
        ("program_seed", p.workload.program_seed(p.seed).to_string()),
        ("threads", p.threads.to_string()),
        ("rounds", p.rounds.to_string()),
        ("block_order_per_round", array(&order)),
        ("pass_seconds", number(Some(p.seconds))),
        ("drivers", array(&drivers)),
    ])
}
