//! `lulesh-multidom`'s command line: the flags every binary shares, the
//! parallel drivers' `--threads`, `--trace` and `--metrics`, and the
//! multi-domain flags, parsed straight into the job's [`Grid3`] and
//! [`RunPlan`]. Every rule across those flags is checked here, once, so a
//! combination that would do nothing exits 2 instead of running.

use crate::{Grid3, RunPlan, SimArgs};
use lulesh_core::opts::{opt, pos, put, val, walk, Flag};
use lulesh_core::{Cli, Opts};
use obs::live::LiveConfig;
use resil::CkptConfig;
use std::str::FromStr;
use std::time::Duration;

/// Inter-rank transport, `--transport`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum TransportMode {
    /// In-process channels (the default; no sockets involved).
    #[default]
    Channel,
    /// Length-prefixed TCP frames. `--transport tcp` lets the launcher
    /// pick a loopback port; `--transport tcp:HOST:PORT` names the root
    /// rank's bootstrap address explicitly (worker processes need this).
    Tcp(Option<String>),
}

impl FromStr for TransportMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "channel" => Ok(Self::Channel),
            "tcp" => Ok(Self::Tcp(None)),
            _ => match s.strip_prefix("tcp:") {
                Some(addr) if !addr.is_empty() => Ok(Self::Tcp(Some(addr.to_string()))),
                _ => Err("expected channel|tcp|tcp:HOST:PORT".into()),
            },
        }
    }
}

/// `--grid NXxNYxNZ` (e.g. `--grid 2x2x2`).
impl FromStr for Grid3 {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let dims: Vec<usize> = s
            .split('x')
            .map(|p| pos(Some(p)))
            .collect::<Result<_, _>>()?;
        match dims[..] {
            [nx, ny, nz] => Ok(Grid3::new(nx, ny, nz)),
            _ => Err(format!("bad grid '{s}': expected NXxNYxNZ")),
        }
    }
}

impl std::fmt::Display for Grid3 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}x{}", self.nx, self.ny, self.nz)
    }
}

/// A `RANK:N[,RANK:N…]` list.
fn pairs(v: Option<&str>) -> Result<Vec<(usize, u64)>, String> {
    let pair = |p: &str| match p.split_once(':') {
        Some((r, n)) => Ok((val(Some(r))?, val(Some(n))?)),
        None => Err(format!("expected RANK:N, got '{p}'")),
    };
    v.unwrap_or_default().split(',').map(pair).collect()
}

/// A parsed `lulesh-multidom` command line.
#[derive(Default)]
pub struct Args {
    /// The flags every binary shares.
    pub opts: Opts,
    /// Workers per rank, `--threads` (`--hpx:threads`, `-t`); `None` is 1,
    /// a serial rank.
    pub threads: Option<usize>,
    /// Chrome-trace output path, `--trace` (`.rankR`-suffixed per TCP
    /// worker).
    pub trace: Option<String>,
    /// Metrics snapshot output path, `--metrics` (likewise suffixed).
    pub metrics: Option<String>,
    /// Per-rank spans files plus a merged, clock-aligned trace and an
    /// analysis report in this directory, `--trace-dir`.
    pub trace_dir: Option<String>,
    /// Inter-rank transport, `--transport channel|tcp|tcp:HOST:PORT`.
    pub transport: TransportMode,
    /// The rank grid, `--grid NXxNYxNZ`; see [`rank_grid`](Self::rank_grid).
    grid: Option<Grid3>,
    /// ζ-slab shorthand, `--ranks N` (`--grid 1x1xN`).
    ranks: Option<usize>,
    /// Run as TCP worker `R` of a launched job, `--rank R`.
    pub rank: Option<usize>,
    /// Merge and analyze an existing `--trace-dir` without running,
    /// `--merge-only`.
    pub merge_only: bool,
    /// The run plan: `--recv-deadline-ms`, `--die-at`, `--slow-rank`,
    /// `--live-metrics[=PERIOD]`, `--ckpt-dir` with `--ckpt-period`, and
    /// `--resume-cycle`. Its transport stays channels (TCP ranks dial their
    /// own net), and its tracer and executor are sized to the job by the
    /// binary.
    pub plan: RunPlan,
    /// `--ckpt-dir`, folded into `plan` with `--ckpt-period`.
    ckpt_dir: Option<String>,
    /// Cycles between checkpoints, `--ckpt-period`; `None` is 10.
    ckpt_period: Option<u64>,
    /// After a rank death, roll every rank back to the newest consistent
    /// checkpoint and rerun, `--respawn`.
    pub respawn: bool,
}

impl Args {
    /// The rank grid: `--grid`, else a ζ chain of `--ranks` (default 2).
    pub fn rank_grid(&self) -> Grid3 {
        self.grid
            .unwrap_or_else(|| Grid3::new(1, 1, self.ranks.unwrap_or(2)))
    }

    /// The problem every rank solves.
    pub fn sim(&self) -> SimArgs {
        let o = &self.opts;
        SimArgs::new(o.num_reg, o.balance, o.cost, o.seed, o.max_cycles)
    }

    /// The rows only the TCP launcher reads: it sets them per worker
    /// rather than forwarding them.
    fn launcher_flags() -> Vec<Flag<Self>> {
        vec![
            Flag::new("transport", "channel|tcp|tcp:HOST:PORT", |a, v| {
                put(&mut a.transport, val(v))
            }),
            Flag::new("ranks", "N", |a, v| put(&mut a.ranks, pos(v).map(Some))),
            Flag::new("rank", "R", |a, v| put(&mut a.rank, opt(v))),
            Flag::new("die-at", "RANK:CYCLE[,RANK:CYCLE…]", |a, v| {
                put(&mut a.plan.faults.die_at, pairs(v))
            }),
            Flag::new("resume-cycle", "C", |a, v| {
                put(&mut a.plan.resil.resume_cycle, opt(v))
            }),
            Flag::new("respawn", "", |a, _| put(&mut a.respawn, Ok(true))),
        ]
    }

    /// `args` minus the launcher's own flags: what the TCP launcher hands
    /// every worker.
    pub fn forwarded(args: &[String]) -> Vec<&String> {
        let (table, launcher) = (Self::table(), Self::launcher_flags());
        let hits = walk(args, &table).expect("the launcher's own arguments parse");
        let own = |f: &Flag<Self>| launcher.iter().any(|l| l.names == f.names);
        hits.into_iter()
            .filter(|(f, _, _)| !own(f))
            .flat_map(|(_, _, tokens)| tokens)
            .collect()
    }
}

impl Cli for Args {
    fn flags() -> Vec<Flag<Self>> {
        let mut flags: Vec<Flag<Self>> = vec![
            Flag::new("threads|hpx:threads|t", "N", |a, v| {
                put(&mut a.threads, pos(v).map(Some))
            }),
            Flag::new("trace", "FILE.json", |a, v| put(&mut a.trace, opt(v))),
            Flag::new("metrics", "FILE.csv", |a, v| put(&mut a.metrics, opt(v))),
            Flag::new("trace-dir", "DIR", |a, v| put(&mut a.trace_dir, opt(v))),
            Flag::new("recv-deadline-ms", "MS", |a, v| {
                put(&mut a.plan.deadline, pos(v).map(Duration::from_millis))
            }),
            Flag::new("grid", "NXxNYxNZ", |a, v| put(&mut a.grid, opt(v))),
            Flag::new("merge-only", "", |a, _| put(&mut a.merge_only, Ok(true))),
            Flag::new("live-metrics", "[=PERIOD]", |a, v| {
                let period = pos(v.or(Some("1")));
                put(&mut a.plan.live, period.map(|p| Some(LiveConfig::new(p))))
            }),
            Flag::new("slow-rank", "RANK:MS", |a, v| match pairs(v)?[..] {
                [pair] => put(&mut a.plan.faults.slow_rank, Ok(Some(pair))),
                _ => Err("expected one RANK:MS".into()),
            }),
            Flag::new("ckpt-dir", "DIR", |a, v| put(&mut a.ckpt_dir, opt(v))),
            Flag::new("ckpt-period", "K", |a, v| {
                put(&mut a.ckpt_period, pos(v).map(Some))
            }),
        ];
        flags.extend(Self::launcher_flags());
        flags
    }

    fn opts(&mut self) -> &mut Opts {
        &mut self.opts
    }

    fn check(&mut self) -> Result<(), String> {
        let (grid, size) = (self.rank_grid(), self.opts.size);
        let ranks = grid.ranks();
        if self.grid.is_some() && self.ranks.is_some_and(|n| n != ranks) {
            return Err(format!("--ranks contradicts --grid {grid} ({ranks} ranks)"));
        }
        if [grid.nx, grid.ny, grid.nz].iter().any(|n| size % n != 0) {
            return Err(format!("grid {grid} does not divide --s {size}"));
        }
        let f = &self.plan.faults;
        let named = f.die_at.iter().map(|p| p.0).chain(f.slow_rank.map(|p| p.0));
        if let Some(r) = named.chain(self.rank).find(|&r| r >= ranks) {
            return Err(format!("no rank {r} in grid {grid} ({ranks} ranks)"));
        }
        if self.rank.is_some() && !matches!(self.transport, TransportMode::Tcp(Some(_))) {
            return Err("--rank needs --transport tcp:HOST:PORT".into());
        }
        let resume = self.plan.resil.resume_cycle.is_some();
        if (self.respawn || resume) && self.ckpt_dir.is_none() {
            return Err("--respawn and --resume-cycle need --ckpt-dir DIR".into());
        }
        if self.merge_only && self.trace_dir.is_none() {
            return Err("--merge-only needs --trace-dir DIR".into());
        }
        let period = self.ckpt_period.unwrap_or(10);
        self.plan.resil.ckpt = self.ckpt_dir.clone().map(|d| CkptConfig::new(d, period));
        if let Some(live) = &mut self.plan.live {
            live.table = !self.opts.quiet;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NONE: [&str; 0] = [];

    #[test]
    fn trace_and_metrics_paths() {
        let o = Args::parse(&["--trace", "out.json", "--metrics=m.csv"]).unwrap();
        assert_eq!(o.trace.as_deref(), Some("out.json"));
        assert_eq!(o.metrics.as_deref(), Some("m.csv"));
        let o = Args::parse(&["--trace-dir", "traces"]).unwrap();
        assert_eq!(o.trace_dir.as_deref(), Some("traces"));
        let o = Args::parse(&["--trace-dir=tr2"]).unwrap();
        assert_eq!(o.trace_dir.as_deref(), Some("tr2"));
        let o = Args::parse(&NONE).unwrap();
        assert!(o.trace.is_none() && o.metrics.is_none());
    }

    #[test]
    fn transport_modes() {
        let o = Args::parse(&NONE).unwrap();
        assert_eq!(o.transport, TransportMode::Channel);
        assert_eq!(o.plan.deadline, Duration::from_millis(10_000));
        let o = Args::parse(&["--transport", "channel"]).unwrap();
        assert_eq!(o.transport, TransportMode::Channel);
        let o = Args::parse(&["--transport", "tcp"]).unwrap();
        assert_eq!(o.transport, TransportMode::Tcp(None));
        let o = Args::parse(&["--transport=tcp:127.0.0.1:9100"]).unwrap();
        assert_eq!(
            o.transport,
            TransportMode::Tcp(Some("127.0.0.1:9100".to_string()))
        );
        let o = Args::parse(&["--recv-deadline-ms", "2500"]).unwrap();
        assert_eq!(o.plan.deadline, Duration::from_millis(2500));
        assert!(Args::parse(&["--transport", "udp"]).is_err());
        assert!(Args::parse(&["--transport", "tcp:"]).is_err());
        assert!(Args::parse(&["--recv-deadline-ms", "0"]).is_err());
    }

    #[test]
    fn grid_specs() {
        let o = Args::parse(&NONE).unwrap();
        assert_eq!(o.grid, None);
        let o = Args::parse(&["--grid", "2x2x2"]).unwrap();
        assert_eq!(
            o.grid,
            Some(Grid3 {
                nx: 2,
                ny: 2,
                nz: 2
            })
        );
        assert_eq!(o.grid.unwrap().ranks(), 8);
        assert_eq!(o.grid.unwrap().to_string(), "2x2x2");
        let o = Args::parse(&["--grid=1x1x3"]).unwrap();
        assert_eq!(
            o.grid,
            Some(Grid3 {
                nx: 1,
                ny: 1,
                nz: 3
            })
        );
        assert!(Args::parse(&["--grid", "2x2"]).is_err());
        assert!(Args::parse(&["--grid", "2x2x0"]).is_err());
        assert!(Args::parse(&["--grid", "2x2x2x2"]).is_err());
        assert!(Args::parse(&["--grid", "axbxc"]).is_err());
        assert!(Args::parse(&["--grid"]).is_err());
    }

    #[test]
    fn live_metrics_and_fault_flags() {
        let period = |o: &Args| o.plan.live.as_ref().map(|l| l.period);
        let o = Args::parse(&NONE).unwrap();
        assert_eq!(period(&o), None);
        assert_eq!(o.plan.faults.die_at, Vec::new());
        assert_eq!(o.plan.faults.slow_rank, None);
        // Bare flag samples every step and must not eat the next token.
        let o = Args::parse(&["--live-metrics", "--q"]).unwrap();
        assert_eq!(period(&o), Some(1));
        assert!(o.opts.quiet);
        let o = Args::parse(&["--live-metrics=10"]).unwrap();
        assert_eq!(period(&o), Some(10));
        assert!(Args::parse(&["--live-metrics=0"]).is_err());
        assert!(Args::parse(&["--live-metrics=x"]).is_err());

        let o = Args::parse(&["--die-at", "1:25"]).unwrap();
        assert_eq!(o.plan.faults.die_at, vec![(1, 25)]);
        let o = Args::parse(&["--ranks", "3", "--slow-rank=2:40"]).unwrap();
        assert_eq!(o.plan.faults.slow_rank, Some((2, 40)));
        assert!(Args::parse(&["--die-at", "25"]).is_err());
        assert!(Args::parse(&["--slow-rank", "x:3"]).is_err());
        assert!(Args::parse(&["--die-at"]).is_err());
    }

    #[test]
    fn die_at_takes_a_comma_list() {
        // One kill per recovery attempt: rank 1 at cycle 40 first, then
        // rank 3 at cycle 55 after the respawn.
        let o = Args::parse(&["--grid", "2x2x1", "--die-at", "1:40,3:55"]).unwrap();
        assert_eq!(o.plan.faults.die_at, vec![(1, 40), (3, 55)]);
        let o = Args::parse(&["--ranks", "3", "--die-at=0:7,2:9,1:11"]).unwrap();
        assert_eq!(o.plan.faults.die_at, vec![(0, 7), (2, 9), (1, 11)]);
        // Any malformed entry poisons the whole list.
        assert!(Args::parse(&["--die-at", "1:40,55"]).is_err());
        assert!(Args::parse(&["--die-at", "1:40,,2:9"]).is_err());
        assert!(Args::parse(&["--die-at", "1:40,x:9"]).is_err());
    }

    #[test]
    fn checkpoint_flags() {
        let o = Args::parse(&NONE).unwrap();
        assert_eq!(o.ckpt_dir, None);
        assert_eq!(o.ckpt_period, None);
        assert_eq!(o.plan.resil.resume_cycle, None);
        assert!(!o.respawn);
        let o = Args::parse(&["--ckpt-dir", "/tmp/ck"]).unwrap();
        assert_eq!(o.plan.resil.ckpt.unwrap().period, 10, "the default period");
        let o = Args::parse(&["--ckpt-dir", "/tmp/ck", "--ckpt-period=5", "--respawn"]).unwrap();
        assert_eq!(o.ckpt_dir.as_deref(), Some("/tmp/ck"));
        assert_eq!(o.ckpt_period, Some(5));
        assert!(o.respawn);
        let o = Args::parse(&["--resume-cycle", "40", "--ckpt-dir", "/tmp/ck"]).unwrap();
        assert_eq!(o.plan.resil.resume_cycle, Some(40));
        assert!(Args::parse(&["--respawn=yes"]).is_err());
        assert!(Args::parse(&["--ckpt-period", "x"]).is_err());
    }

    #[test]
    fn resume_cycle_needs_a_checkpoint_dir() {
        // Without a directory there is no wave to resume from: the run
        // would silently start at cycle 0.
        assert!(Args::parse(&["--resume-cycle", "3"]).is_err());
        assert!(Args::parse(&["--resume-cycle", "3", "--ckpt-dir", "d"]).is_ok());
    }

    #[test]
    fn faults_must_name_a_rank_of_the_grid() {
        for args in [
            &["--grid", "1x1x2", "--die-at", "5:3"][..],
            &["--grid", "1x1x2", "--die-at", "0:3,2:4"],
            &["--slow-rank", "7:10"],
            &["--ranks", "2", "--slow-rank", "2:10"],
        ] {
            assert!(Args::parse(args).is_err(), "{args:?}");
        }
        assert!(Args::parse(&["--grid", "1x1x2", "--die-at", "1:3"]).is_ok());
        assert!(Args::parse(&["--grid", "2x2x2", "--slow-rank", "7:10"]).is_ok());
    }

    #[test]
    fn checkpoint_period_zero_is_rejected() {
        // It used to be clamped to 1 without a word.
        assert!(Args::parse(&["--ckpt-dir", "d", "--ckpt-period", "0"]).is_err());
        assert!(Args::parse(&["--ckpt-dir", "d", "--ckpt-period", "1"]).is_ok());
    }

    #[test]
    fn respawn_needs_a_checkpoint_dir() {
        assert!(Args::parse(&["--respawn"]).is_err());
        assert!(Args::parse(&["--respawn", "--transport", "tcp"]).is_err());
        assert!(Args::parse(&["--respawn", "--ckpt-dir", "d"]).is_ok());
    }

    #[test]
    fn rank_needs_a_root_address_in_range() {
        let root = "--transport=tcp:127.0.0.1:9100";
        assert!(Args::parse(&["--rank", "1"]).is_err());
        assert!(Args::parse(&["--rank", "1", "--transport", "tcp"]).is_err());
        assert!(Args::parse(&["--rank", "2", root]).is_err(), "2 ranks");
        let o = Args::parse(&["--rank", "1", root]).unwrap();
        assert_eq!(o.rank, Some(1));
    }

    #[test]
    fn grid_and_ranks_must_agree_and_divide_the_size() {
        assert_eq!(Args::parse(&NONE).unwrap().rank_grid(), Grid3::new(1, 1, 2));
        let o = Args::parse(&["--ranks", "3"]).unwrap();
        assert_eq!(o.rank_grid(), Grid3::new(1, 1, 3));
        let o = Args::parse(&["--grid", "2x2x1", "--ranks=4"]).unwrap();
        assert_eq!(o.rank_grid(), Grid3::new(2, 2, 1));
        assert!(Args::parse(&["--grid", "2x2x1", "--ranks", "2"]).is_err());
        assert!(Args::parse(&["--ranks", "0"]).is_err());
        assert!(Args::parse(&["--s", "6", "--ranks", "4"]).is_err());
        assert!(Args::parse(&["--s", "6", "--grid", "1x2x3"]).is_ok());
        assert!(Args::parse(&["--merge-only"]).is_err());
        assert!(Args::parse(&["--merge-only", "--trace-dir", "d"]).is_ok());
    }

    #[test]
    fn launcher_forwards_everything_but_its_own_flags() {
        let args: Vec<String> = [
            "--s",
            "6",
            "--trace-dir",
            "ranks",
            "--ranks",
            "2",
            "--rank=1",
            "-transport",
            "tcp",
            "--die-at=1:3",
            "--resume-cycle",
            "4",
            "--respawn",
            "--ckpt-dir",
            "d",
            "--live-metrics",
            "--q",
        ]
        .map(String::from)
        .to_vec();
        let kept: Vec<&str> = Args::forwarded(&args)
            .into_iter()
            .map(|a| a.as_str())
            .collect();
        // `ranks` here is the trace directory, not the flag.
        assert_eq!(
            kept,
            [
                "--s",
                "6",
                "--trace-dir",
                "ranks",
                "--ckpt-dir",
                "d",
                "--live-metrics",
                "--q"
            ]
        );
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
            &["--trace-dir", "d"],
            &["--recv-deadline-ms", "100"],
            &["--grid", "1x1x2"],
            &["--merge-only", "--trace-dir", "d"],
            &["--live-metrics"],
            &["--slow-rank", "0:1"],
            &["--ckpt-dir", "d"],
            &["--ckpt-period", "2"],
            &["--transport", "tcp"],
            &["--ranks", "2"],
            &["--rank", "0", "--transport", "tcp:127.0.0.1:9100"],
            &["--die-at", "0:1"],
            &["--resume-cycle", "3", "--ckpt-dir", "d"],
            &["--respawn", "--ckpt-dir", "d"],
        ];
        let usage = Args::usage("lulesh-multidom");
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
        // Task ranks derive their partition from the rank's sub-brick.
        for args in [
            &["--partition", "table"][..],
            &["--pin", "all"],
            &["--help"],
        ] {
            assert!(Args::parse(args).is_err(), "{args:?}");
        }
    }
}
