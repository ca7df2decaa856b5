//! A pass: blocks of the chosen drivers, interleaved round-robin so a
//! load burst on the host hits all of them, one block at a time.

use crate::block::{check_physics, run_block};
use crate::stats::{fast, median, worst};
use crate::workloads::{Driver, Workload};
use std::path::Path;
use std::time::{Duration, Instant};

/// A block may not take longer than this (the slowest real one is ~1 s).
const BLOCK_LIMIT: Duration = Duration::from_secs(60);

/// The good blocks of one driver, plus what went wrong with the others.
#[derive(Debug, Clone)]
pub struct DriverSamples {
    pub driver: Driver,
    /// Reported loop seconds per good block.
    pub loop_s: Vec<f64>,
    /// Process wall − reported loop seconds per good block.
    pub setup_s: Vec<f64>,
    /// Child user+sys CPU seconds per good block.
    pub cpu_s: Vec<f64>,
    /// Peak RSS (KiB) per good block.
    pub rss_kb: Vec<f64>,
    /// Reason per failed block.
    pub failures: Vec<String>,
}

impl DriverSamples {
    fn new(driver: Driver) -> Self {
        Self {
            driver,
            loop_s: Vec::new(),
            setup_s: Vec::new(),
            cpu_s: Vec::new(),
            rss_kb: Vec::new(),
            failures: Vec::new(),
        }
    }

    /// Zone-iterations per second at the fastest decile of loop times.
    pub fn fom(&self, w: &Workload) -> Option<f64> {
        fast(&self.loop_s).map(|t| w.zone_iterations() / t)
    }

    /// `median ÷ fastest decile − 1` of the loop times: how noisy the
    /// host was.
    pub fn block_spread(&self) -> Option<f64> {
        Some(median(&self.loop_s)? / fast(&self.loop_s)? - 1.0)
    }
}

/// Everything one pass over a workload produced.
#[derive(Debug, Clone)]
pub struct Pass {
    pub workload: &'static Workload,
    pub threads: usize,
    pub seed: u64,
    pub rounds: usize,
    pub seconds: f64,
    /// One entry per driver that ran, in block order.
    pub drivers: Vec<DriverSamples>,
}

impl Pass {
    /// The samples of `d`, if it ran in this pass.
    pub fn samples(&self, d: Driver) -> Option<&DriverSamples> {
        self.drivers.iter().find(|s| s.driver == d)
    }

    fn fom(&self, d: Driver) -> Option<f64> {
        self.samples(d)?.fom(self.workload)
    }

    pub fn attempted(&self) -> usize {
        self.rounds * self.drivers.len()
    }

    pub fn failed(&self) -> usize {
        self.drivers.iter().map(|d| d.failures.len()).sum()
    }

    /// The end-to-end metrics in `spec::END_TO_END` order: name, value
    /// (`None` where no good block exists to compute one from) and the
    /// good blocks behind it — a figure of merit counts its own driver's,
    /// the other metrics the primary driver's.
    pub fn end_to_end(&self) -> Vec<(&'static str, Option<f64>, usize)> {
        let w = self.workload;
        let blocks = |d: Driver| self.samples(d).map_or(0, |s| s.loop_s.len());
        let fom = |name, d: Driver| (name, self.fom(d), blocks(d));
        let p = self.samples(w.primary);
        let primary = |name, value: Option<f64>| (name, value, blocks(w.primary));
        vec![
            fom("fom_serial_zps", Driver::Serial),
            fom("fom_omp_zps", Driver::Omp),
            fom("fom_task_zps", Driver::Task),
            fom("fom_multidom_channel_zps", Driver::MultidomChannel),
            fom("fom_multidom_tcp_zps", Driver::MultidomTcp),
            primary(
                "cpu_us_per_zone",
                p.and_then(|p| fast(&p.cpu_s))
                    .map(|c| c * 1e6 / w.zone_iterations()),
            ),
            primary("setup_s", p.and_then(|p| median(&p.setup_s))),
            primary(
                "peak_rss_mb",
                p.and_then(|p| worst(&p.rss_kb)).map(|kb| kb / 1024.0),
            ),
        ]
    }

    /// The `derived.*` rows: the ratios of two drivers (never gated: fixing
    /// the fork-join reference must not register as a regression) and the
    /// noise gauge per driver.
    pub fn derived(&self) -> Vec<(String, Option<f64>)> {
        let ratio = |a: Option<f64>, b: Option<f64>| Some(a? / b?);
        let t = self.threads as f64;
        let ranks = self.workload.ranks(self.threads) as f64;
        let (serial, omp, task) = (
            self.fom(Driver::Serial),
            self.fom(Driver::Omp),
            self.fom(Driver::Task),
        );
        let (channel, tcp) = (
            self.fom(Driver::MultidomChannel),
            self.fom(Driver::MultidomTcp),
        );
        let mut out: Vec<(String, Option<f64>)> = vec![
            ("derived.speedup_task_over_omp".into(), ratio(task, omp)),
            (
                "derived.task_parallel_efficiency".into(),
                ratio(task, serial).map(|r| r / t),
            ),
            (
                "derived.multidom_parallel_efficiency".into(),
                ratio(channel, serial).map(|r| r / ranks),
            ),
            ("derived.tcp_over_channel".into(), ratio(tcp, channel)),
        ];
        for d in Driver::ALL {
            out.push((
                format!("derived.block_spread_{}", d.key()),
                self.samples(d).and_then(DriverSamples::block_spread),
            ));
        }
        out
    }
}

/// Run rounds of one block per driver in `drivers` until `budget` is used
/// up, at least `min_rounds` of them. A round that would overrun is not
/// started.
pub fn run_pass(
    w: &'static Workload,
    drivers: &[Driver],
    bin_dir: &Path,
    threads: usize,
    seed: u64,
    budget: Duration,
    min_rounds: usize,
) -> Pass {
    let t0 = Instant::now();
    let mut drivers: Vec<DriverSamples> = drivers.iter().copied().map(DriverSamples::new).collect();
    let mut rounds = 0;
    let mut longest_round = Duration::ZERO;
    while rounds < min_rounds || t0.elapsed() + longest_round <= budget {
        let r0 = Instant::now();
        for s in &mut drivers {
            let mut args = w.flags(seed);
            args.extend(s.driver.flags(w, threads));
            let b = run_block(&bin_dir.join(s.driver.binary()), &args, BLOCK_LIMIT);
            let checked = b
                .row
                .and_then(|row| check_physics(&row, w.size, w.iterations, w.energy).map(|()| row));
            match checked {
                Ok(row) => {
                    s.loop_s.push(row.runtime_s);
                    s.setup_s.push(b.wall_s - row.runtime_s);
                    s.cpu_s.push(b.usage.cpu_s);
                    s.rss_kb.push(b.usage.maxrss_kb as f64);
                }
                Err(why) => s.failures.push(format!("round {rounds}: {why}")),
            }
        }
        rounds += 1;
        longest_round = longest_round.max(r0.elapsed());
    }
    Pass {
        workload: w,
        threads,
        seed,
        rounds,
        seconds: t0.elapsed().as_secs_f64(),
        drivers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::END_TO_END;
    use crate::workloads::WORKLOADS;

    fn fake_pass() -> Pass {
        let w = &WORKLOADS[1];
        let drivers = Driver::ALL
            .into_iter()
            .enumerate()
            .map(|(i, d)| DriverSamples {
                driver: d,
                // Eleven blocks, so the fastest decile is the second fastest.
                loop_s: [
                    vec![0.05, 0.1 + i as f64 * 0.1],
                    vec![0.2 + i as f64 * 0.1; 9],
                ]
                .concat(),
                setup_s: vec![0.004, 0.003, 0.005],
                cpu_s: [vec![0.1, 0.21], vec![0.4; 9]].concat(),
                rss_kb: vec![4096.0, 5120.0, 4000.0],
                failures: vec![],
            })
            .collect();
        Pass {
            workload: w,
            threads: 2,
            seed: 0,
            rounds: 11,
            seconds: 1.0,
            drivers,
        }
    }

    fn by_name(p: &Pass) -> std::collections::BTreeMap<&'static str, Option<f64>> {
        p.end_to_end().into_iter().map(|(n, v, _)| (n, v)).collect()
    }

    #[test]
    fn metrics_use_the_fastest_decile_and_the_primary_driver() {
        let p = fake_pass();
        let m = by_name(&p);
        let zi = 1000.0 * 231.0;
        let close = |name: &str, want: f64| {
            let got = m[name].unwrap();
            assert!((got / want - 1.0).abs() < 1e-12, "{name}: {got} vs {want}");
        };
        close("fom_serial_zps", zi / 0.1);
        close("fom_omp_zps", zi / 0.2);
        close("fom_task_zps", zi / 0.3);
        close("fom_multidom_channel_zps", zi / 0.4);
        close("fom_multidom_tcp_zps", zi / 0.5);
        assert_eq!(m.len(), END_TO_END.len());
        close("cpu_us_per_zone", 0.21e6 / zi);
        assert_eq!(m["setup_s"], Some(0.004));
        assert_eq!(m["peak_rss_mb"], Some(5.0));
        let blocks: Vec<usize> = p.end_to_end().into_iter().map(|(_, _, n)| n).collect();
        assert_eq!(blocks, vec![11; 8], "every driver has eleven good blocks");
        assert_eq!(p.attempted(), 55);
        assert_eq!(p.failed(), 0);
    }

    #[test]
    fn every_declared_end_to_end_metric_is_emitted_once_in_order() {
        let names: Vec<_> = fake_pass()
            .end_to_end()
            .into_iter()
            .map(|(n, _, _)| n)
            .collect();
        let declared: Vec<_> = END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, declared);
    }

    #[test]
    fn derived_ratios_name_their_base() {
        let p = fake_pass();
        let d: std::collections::BTreeMap<_, _> = p.derived().into_iter().collect();
        // Fastest deciles: task 0.3 s, omp 0.2 s, serial 0.1 s; T = 2.
        assert!((d["derived.speedup_task_over_omp"].unwrap() - 0.2 / 0.3).abs() < 1e-12);
        assert!((d["derived.task_parallel_efficiency"].unwrap() - 0.1 / 0.3 / 2.0).abs() < 1e-12);
        assert!((d["derived.block_spread_serial"].unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(d.len(), 9);
    }

    #[test]
    fn a_driver_with_no_good_block_or_no_block_yields_no_number() {
        let mut p = fake_pass();
        p.drivers[2].loop_s.clear();
        p.drivers[2].failures.push("round 0: exit code 1".into());
        assert_eq!(by_name(&p)["fom_task_zps"], None);
        assert_eq!(p.failed(), 1);

        // A pass the fork-join driver did not run in has none of its numbers.
        p.drivers.retain(|d| d.driver != Driver::Omp);
        assert_eq!(by_name(&p)["fom_omp_zps"], None);
        let d: std::collections::BTreeMap<_, _> = p.derived().into_iter().collect();
        assert_eq!(d["derived.speedup_task_over_omp"], None);
        assert_eq!(d["derived.block_spread_omp"], None);
        assert_eq!(d.len(), 9);
    }
}
