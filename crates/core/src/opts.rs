//! Command-line options shared by all LULESH binaries, mirroring the
//! artifact's flags: `--s` (size), `--r` (regions), `--i` (iterations),
//! `--b` (balance), `--c` (cost), `--q` (quiet), and `--threads` for the
//! parallel drivers (the artifact's `--hpx:threads`).

use crate::simd::LaneWidth;
use crate::types::Index;

/// Kernel lane-width policy, `--simd scalar|w2|w4|w8|auto`.
///
/// Every width is bit-identical to the scalar reference (see
/// [`crate::simd`]), so this flag is purely a performance knob: `wN` pins
/// the lane kernels to N lanes (the default is [`LaneWidth::DEFAULT`]),
/// `scalar` runs the reference inner loops, and `auto` lets the task
/// driver's online tuner co-tune lane width with the partition sizes
/// (drivers without a tuner resolve `auto` to the default width).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdMode {
    /// Scalar reference loops (`--simd scalar`, alias `w1`).
    Scalar,
    /// A fixed lane width (`--simd w2|w4|w8`).
    Fixed(LaneWidth),
    /// Online width tuning where a tuner runs; the default width elsewhere.
    Auto,
}

impl Default for SimdMode {
    fn default() -> Self {
        Self::Fixed(LaneWidth::DEFAULT)
    }
}

impl SimdMode {
    /// The width a driver without an online tuner should activate before
    /// its first kernel. The task driver treats [`SimdMode::Auto`]
    /// differently: it starts scalar and lets the 2-D auto-tuner climb.
    pub fn static_width(self) -> LaneWidth {
        match self {
            SimdMode::Scalar => LaneWidth::W1,
            SimdMode::Fixed(w) => w,
            SimdMode::Auto => LaneWidth::DEFAULT,
        }
    }
}

impl std::str::FromStr for SimdMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "scalar" | "w1" => Ok(Self::Scalar),
            "w2" => Ok(Self::Fixed(LaneWidth::W2)),
            "w4" => Ok(Self::Fixed(LaneWidth::W4)),
            "w8" => Ok(Self::Fixed(LaneWidth::W8)),
            "auto" => Ok(Self::Auto),
            _ => Err("expected scalar|w2|w4|w8|auto".into()),
        }
    }
}

/// Partition-size policy for the task driver, `--partition`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PartitionMode {
    /// Static Table I lookup (thread-aware). The default.
    #[default]
    Table,
    /// Online auto-tuning (`--partition auto`).
    Auto,
    /// One explicit size for both phases (`--partition fixed:N`).
    Fixed(usize),
}

impl std::str::FromStr for PartitionMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "table" => Ok(Self::Table),
            "auto" => Ok(Self::Auto),
            _ => {
                let n = s
                    .strip_prefix("fixed:")
                    .ok_or("expected auto|fixed:N|table")?;
                match n.parse::<usize>() {
                    Ok(n) if n > 0 => Ok(Self::Fixed(n)),
                    _ => Err(format!("bad fixed partition size '{n}'")),
                }
            }
        }
    }
}

/// Inter-rank transport for the multi-domain drivers, `--transport`.
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

impl std::str::FromStr for TransportMode {
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

/// NUMA worker-pinning policy, `--pin`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum PinMode {
    /// No pinning; the OS schedules workers freely. The default.
    #[default]
    None,
    /// Pin across every NUMA node of the machine (`--pin all`).
    All,
    /// Pin onto the listed nodes (`--pin node0,node1,…`). Ids are
    /// syntax-checked here and validated against the live topology by the
    /// driver (unknown ids degrade to a warning there, not a parse error —
    /// the same command line must work across differently-sized hosts).
    Nodes(Vec<usize>),
}

impl PinMode {
    /// The requested node ids: empty slice means "all nodes" for both
    /// [`PinMode::All`] and (vacuously) [`PinMode::None`].
    pub fn requested_nodes(&self) -> &[usize] {
        match self {
            PinMode::Nodes(ids) => ids,
            _ => &[],
        }
    }

    /// Whether pinning was requested at all.
    pub fn enabled(&self) -> bool {
        !matches!(self, PinMode::None)
    }
}

impl std::str::FromStr for PinMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "none" => Ok(Self::None),
            "all" => Ok(Self::All),
            _ => {
                let mut ids = Vec::new();
                for part in s.split(',') {
                    let id = part
                        .strip_prefix("node")
                        .and_then(|n| n.parse::<usize>().ok())
                        .ok_or_else(|| {
                            format!("bad pin spec '{part}': expected all|none|node0,node1,…")
                        })?;
                    if !ids.contains(&id) {
                        ids.push(id);
                    }
                }
                if ids.is_empty() {
                    return Err("empty pin spec".into());
                }
                Ok(Self::Nodes(ids))
            }
        }
    }
}

/// A 3-D rank grid, `--grid NXxNYxNZ` (e.g. `--grid 2x2x2`). The rank
/// count is the product of the three extents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridSpec {
    /// Ranks along ξ (x).
    pub nx: usize,
    /// Ranks along η (y).
    pub ny: usize,
    /// Ranks along ζ (z).
    pub nz: usize,
}

impl GridSpec {
    /// Total rank count.
    pub fn ranks(&self) -> usize {
        self.nx * self.ny * self.nz
    }
}

impl std::fmt::Display for GridSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}x{}", self.nx, self.ny, self.nz)
    }
}

impl std::str::FromStr for GridSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split('x').collect();
        if parts.len() != 3 {
            return Err(format!("bad grid '{s}': expected NXxNYxNZ"));
        }
        let mut dims = [0usize; 3];
        for (d, p) in dims.iter_mut().zip(&parts) {
            *d = match p.parse::<usize>() {
                Ok(n) if n > 0 => n,
                _ => return Err(format!("bad grid extent '{p}' in '{s}'")),
            };
        }
        Ok(Self {
            nx: dims[0],
            ny: dims[1],
            nz: dims[2],
        })
    }
}

/// Parsed options with the reference defaults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Opts {
    /// Problem size (elements per edge), `--s`. Default 30.
    pub size: Index,
    /// Number of regions, `--r`. Default 11.
    pub num_reg: usize,
    /// Maximum iterations, `--i`. Default: run to stoptime.
    pub max_cycles: u64,
    /// Region weighting exponent, `--b`. Default 1.
    pub balance: i32,
    /// Region cost multiplier, `--c`. Default 1.
    pub cost: i32,
    /// Suppress verbose output, `--q`.
    pub quiet: bool,
    /// Worker threads for parallel drivers, `--threads`. Default 1.
    pub threads: usize,
    /// Region assignment seed (not in the reference; fixed default 0).
    pub seed: u64,
    /// Write a Chrome-trace JSON of the run to this path, `--trace`.
    pub trace: Option<String>,
    /// Write a metrics snapshot (CSV, or JSON when the path ends in
    /// `.json`) to this path, `--metrics`.
    pub metrics: Option<String>,
    /// Collect per-rank trace files plus a merged, clock-aligned Chrome
    /// trace and analysis report into this directory, `--trace-dir`
    /// (multi-domain drivers).
    pub trace_dir: Option<String>,
    /// Partition policy for the task driver, `--partition auto|fixed:N|table`.
    pub partition: PartitionMode,
    /// Kernel lane width, `--simd scalar|w2|w4|w8|auto`. Default
    /// [`LaneWidth::DEFAULT`].
    pub simd: SimdMode,
    /// Inter-rank transport for the multi-domain drivers,
    /// `--transport channel|tcp|tcp:HOST:PORT`.
    pub transport: TransportMode,
    /// Per-receive deadline for the network transports in milliseconds,
    /// `--recv-deadline-ms`. Default 10 000.
    pub recv_deadline_ms: u64,
    /// NUMA worker pinning, `--pin all|none|node0,node1,…`. Default none.
    pub pin: PinMode,
    /// 3-D rank grid for the multi-domain drivers, `--grid NXxNYxNZ`.
    /// Default: none (a 1-D ζ chain over `--ranks`).
    pub grid: Option<GridSpec>,
    /// Live in-band telemetry period in timesteps,
    /// `--live-metrics[=PERIOD]` (bare flag means every step). Each rank
    /// streams per-step summaries to rank 0 on the dt allreduce; rank 0
    /// emits JSONL and an end-of-run straggler table (multi-domain
    /// drivers). Default: off.
    pub live_metrics: Option<u64>,
    /// Fault injection: `--die-at RANK:CYCLE[,RANK:CYCLE,…]` kills each
    /// listed rank abruptly at the top of that cycle, in order across
    /// recovery attempts (multi-domain drivers; testing only).
    pub die_at: Vec<(usize, u64)>,
    /// Fault injection: `--slow-rank RANK:MS` stalls that rank for `MS`
    /// milliseconds every step — a controlled straggler (multi-domain
    /// drivers; testing only).
    pub slow_rank: Option<(usize, u64)>,
    /// Checkpoint directory, `--ckpt-dir DIR`: every rank writes a
    /// checksummed snapshot there every `--ckpt-period` cycles
    /// (multi-domain drivers). Default: off.
    pub ckpt_dir: Option<String>,
    /// Cycles between checkpoints, `--ckpt-period`. Default 10.
    pub ckpt_period: u64,
    /// Resume from the checkpoint wave at this cycle instead of cycle 0,
    /// `--resume-cycle C` (requires `--ckpt-dir`; set by the `--respawn`
    /// launcher, rarely by hand).
    pub resume_cycle: Option<u64>,
    /// Launcher resilience, `--respawn`: when a rank dies, roll every
    /// rank back to the newest globally consistent checkpoint and rerun
    /// (requires `--ckpt-dir`).
    pub respawn: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            size: 30,
            num_reg: 11,
            max_cycles: 9_999_999,
            balance: 1,
            cost: 1,
            quiet: false,
            threads: 1,
            seed: 0,
            trace: None,
            metrics: None,
            trace_dir: None,
            partition: PartitionMode::Table,
            simd: SimdMode::default(),
            transport: TransportMode::Channel,
            recv_deadline_ms: 10_000,
            pin: PinMode::None,
            grid: None,
            live_metrics: None,
            die_at: Vec::new(),
            slow_rank: None,
            ckpt_dir: None,
            ckpt_period: 10,
            resume_cycle: None,
            respawn: false,
        }
    }
}

/// Parse errors carry the offending token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid arguments: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

impl Opts {
    /// Parse an argument list (without the program name). Accepts both
    /// `--s 45` and `--s=45` forms, plus single-dash aliases (`-s 45`)
    /// matching the OpenMP reference flags.
    pub fn parse<I, S>(args: I) -> Result<Self, ParseError>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut opts = Self::default();
        let mut it = args.into_iter();

        fn parse_val<T: std::str::FromStr>(
            flag: &str,
            inline: Option<&str>,
            it: &mut impl Iterator<Item = impl AsRef<str>>,
        ) -> Result<T, ParseError> {
            let raw = match inline {
                Some(v) => v.to_string(),
                None => it
                    .next()
                    .map(|s| s.as_ref().to_string())
                    .ok_or_else(|| ParseError(format!("{flag} needs a value")))?,
            };
            raw.parse()
                .map_err(|_| ParseError(format!("{flag}: bad value '{raw}'")))
        }

        // A comma-separated `RANK:N,RANK:N,…` list: one fault per
        // recovery attempt (`--die-at 1:40,3:55` kills rank 1 first,
        // then rank 3 after the respawn).
        fn parse_pair_list(
            flag: &str,
            inline: Option<&str>,
            it: &mut impl Iterator<Item = impl AsRef<str>>,
        ) -> Result<Vec<(usize, u64)>, ParseError> {
            let raw: String = parse_val(flag, inline, it)?;
            raw.split(',')
                .map(|part| {
                    let (r, n) = part.split_once(':').ok_or_else(|| {
                        ParseError(format!("{flag}: expected RANK:N, got '{part}'"))
                    })?;
                    match (r.parse::<usize>(), n.parse::<u64>()) {
                        (Ok(r), Ok(n)) => Ok((r, n)),
                        _ => Err(ParseError(format!("{flag}: bad pair '{part}'"))),
                    }
                })
                .collect()
        }

        // A `RANK:N` pair (fault-injection flags).
        fn parse_pair(
            flag: &str,
            inline: Option<&str>,
            it: &mut impl Iterator<Item = impl AsRef<str>>,
        ) -> Result<(usize, u64), ParseError> {
            let raw: String = parse_val(flag, inline, it)?;
            let (r, n) = raw
                .split_once(':')
                .ok_or_else(|| ParseError(format!("{flag}: expected RANK:N, got '{raw}'")))?;
            match (r.parse::<usize>(), n.parse::<u64>()) {
                (Ok(r), Ok(n)) => Ok((r, n)),
                _ => Err(ParseError(format!("{flag}: bad pair '{raw}'"))),
            }
        }

        while let Some(arg) = it.next() {
            let arg = arg.as_ref();
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f, Some(v)),
                None => (arg, None),
            };
            match flag.trim_start_matches('-') {
                "s" => opts.size = parse_val(flag, inline, &mut it)?,
                "r" => opts.num_reg = parse_val(flag, inline, &mut it)?,
                "i" => opts.max_cycles = parse_val(flag, inline, &mut it)?,
                "b" => opts.balance = parse_val(flag, inline, &mut it)?,
                "c" => opts.cost = parse_val(flag, inline, &mut it)?,
                "threads" | "hpx:threads" | "t" => opts.threads = parse_val(flag, inline, &mut it)?,
                "seed" => opts.seed = parse_val(flag, inline, &mut it)?,
                "trace" => opts.trace = Some(parse_val(flag, inline, &mut it)?),
                "metrics" => opts.metrics = Some(parse_val(flag, inline, &mut it)?),
                "trace-dir" => opts.trace_dir = Some(parse_val(flag, inline, &mut it)?),
                "partition" => opts.partition = parse_val(flag, inline, &mut it)?,
                "simd" => opts.simd = parse_val(flag, inline, &mut it)?,
                "transport" => opts.transport = parse_val(flag, inline, &mut it)?,
                "recv-deadline-ms" => opts.recv_deadline_ms = parse_val(flag, inline, &mut it)?,
                "pin" => opts.pin = parse_val(flag, inline, &mut it)?,
                "grid" => opts.grid = Some(parse_val(flag, inline, &mut it)?),
                "live-metrics" => {
                    // Bare flag = every step; never consumes the next
                    // token (so `--live-metrics --q` works).
                    opts.live_metrics = Some(match inline {
                        Some(v) => match v.parse::<u64>() {
                            Ok(p) if p >= 1 => p,
                            _ => return Err(ParseError(format!("{flag}: bad period '{v}'"))),
                        },
                        None => 1,
                    });
                }
                "die-at" => opts.die_at = parse_pair_list(flag, inline, &mut it)?,
                "slow-rank" => opts.slow_rank = Some(parse_pair(flag, inline, &mut it)?),
                "ckpt-dir" => opts.ckpt_dir = Some(parse_val(flag, inline, &mut it)?),
                "ckpt-period" => opts.ckpt_period = parse_val(flag, inline, &mut it)?,
                "resume-cycle" => opts.resume_cycle = Some(parse_val(flag, inline, &mut it)?),
                "respawn" => {
                    if inline.is_some() {
                        return Err(ParseError(format!("{flag} takes no value")));
                    }
                    opts.respawn = true;
                }
                "q" => {
                    if inline.is_some() {
                        return Err(ParseError(format!("{flag} takes no value")));
                    }
                    opts.quiet = true;
                }
                "h" | "help" => return Err(ParseError("help requested".into())),
                other => return Err(ParseError(format!("unknown flag '{other}'"))),
            }
        }
        if opts.size == 0 {
            return Err(ParseError("size must be positive".into()));
        }
        if opts.num_reg == 0 {
            return Err(ParseError("regions must be positive".into()));
        }
        if opts.threads == 0 {
            return Err(ParseError("threads must be positive".into()));
        }
        if opts.recv_deadline_ms == 0 {
            return Err(ParseError("recv deadline must be positive".into()));
        }
        Ok(opts)
    }

    /// Usage text for the binaries.
    pub fn usage(program: &str) -> String {
        format!(
            "Usage: {program} [--s SIZE] [--r REGIONS] [--i ITERATIONS] \
             [--b BALANCE] [--c COST] [--threads N] [--q] \
             [--trace FILE.json] [--metrics FILE.csv|.json] [--trace-dir DIR] \
             [--partition auto|fixed:N|table] [--simd scalar|w2|w4|w8|auto] \
             [--transport channel|tcp|tcp:HOST:PORT] [--recv-deadline-ms MS] \
             [--pin all|none|node0,node1,…] [--grid NXxNYxNZ] \
             [--live-metrics[=PERIOD]] [--die-at RANK:CYCLE[,RANK:CYCLE…]] \
             [--slow-rank RANK:MS] [--ckpt-dir DIR] [--ckpt-period K] \
             [--resume-cycle C] [--respawn]\n\
             Defaults: --s 30 --r 11 --b 1 --c 1 --threads 1 \
             --partition table --simd {default_width} --transport channel \
             --recv-deadline-ms 10000 --pin none, run to stoptime.\n\
             --trace writes a Chrome-trace timeline (load in Perfetto); \
             --metrics writes a per-phase metrics snapshot; \
             --trace-dir collects per-rank traces, a merged clock-aligned \
             timeline, and an overhead-taxonomy report (multi-domain); \
             --partition auto tunes partition sizes online (task driver); \
             --simd picks the kernel lane width (every width is bit-identical \
             to --simd scalar, the reference loops); --simd auto co-tunes \
             width with the partition sizes on the task driver and resolves \
             to {default_width} elsewhere; \
             --transport tcp exchanges halos over loopback sockets \
             (multi-domain drivers); \
             --pin pins workers to NUMA nodes with locality-aware stealing \
             (degrades to a warning on single-node hosts); \
             --grid decomposes over a 3-D rank grid with 27-neighbour halo \
             exchange (multi-domain drivers; each extent must divide --s); \
             --live-metrics streams per-step rank summaries to rank 0 \
             in-band (JSONL on stdout, straggler table on stderr); \
             --die-at / --slow-rank inject faults for testing (die-at \
             takes a comma list, one kill per recovery attempt); \
             --ckpt-dir checkpoints every rank every --ckpt-period cycles \
             (async writer thread, checksummed files); \
             --respawn rolls back to the newest globally consistent \
             checkpoint after a rank failure and reruns (launcher); \
             --resume-cycle resumes one run from a specific wave.",
            default_width = LaneWidth::DEFAULT,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let o = Opts::parse(Vec::<String>::new()).unwrap();
        assert_eq!(o, Opts::default());
        assert_eq!(o.size, 30);
        assert_eq!(o.num_reg, 11);
    }

    #[test]
    fn artifact_style_flags() {
        let o = Opts::parse(["--s", "90", "--q", "--i", "770", "--hpx:threads=16"]).unwrap();
        assert_eq!(o.size, 90);
        assert_eq!(o.max_cycles, 770);
        assert_eq!(o.threads, 16);
        assert!(o.quiet);
    }

    #[test]
    fn reference_style_flags() {
        let o = Opts::parse(["-s", "45", "-r", "21", "-b", "2", "-c", "3"]).unwrap();
        assert_eq!(o.size, 45);
        assert_eq!(o.num_reg, 21);
        assert_eq!(o.balance, 2);
        assert_eq!(o.cost, 3);
    }

    #[test]
    fn equals_form() {
        let o = Opts::parse(["--s=60", "--r=16"]).unwrap();
        assert_eq!(o.size, 60);
        assert_eq!(o.num_reg, 16);
    }

    #[test]
    fn trace_and_metrics_paths() {
        let o = Opts::parse(["--trace", "out.json", "--metrics=m.csv"]).unwrap();
        assert_eq!(o.trace.as_deref(), Some("out.json"));
        assert_eq!(o.metrics.as_deref(), Some("m.csv"));
        let o = Opts::parse(["--trace-dir", "traces"]).unwrap();
        assert_eq!(o.trace_dir.as_deref(), Some("traces"));
        let o = Opts::parse(["--trace-dir=tr2"]).unwrap();
        assert_eq!(o.trace_dir.as_deref(), Some("tr2"));
        let o = Opts::parse(Vec::<String>::new()).unwrap();
        assert!(o.trace.is_none() && o.metrics.is_none());
    }

    #[test]
    fn partition_modes() {
        let o = Opts::parse(Vec::<String>::new()).unwrap();
        assert_eq!(o.partition, PartitionMode::Table);
        let o = Opts::parse(["--partition", "auto"]).unwrap();
        assert_eq!(o.partition, PartitionMode::Auto);
        let o = Opts::parse(["--partition=fixed:2048"]).unwrap();
        assert_eq!(o.partition, PartitionMode::Fixed(2048));
        let o = Opts::parse(["--partition", "table"]).unwrap();
        assert_eq!(o.partition, PartitionMode::Table);
        assert!(Opts::parse(["--partition", "bogus"]).is_err());
        assert!(Opts::parse(["--partition", "fixed:0"]).is_err());
        assert!(Opts::parse(["--partition", "fixed:x"]).is_err());
        assert!(Opts::parse(["--partition"]).is_err());
    }

    #[test]
    fn simd_modes() {
        // A plain run takes the one default width, the same constant the
        // kernels' global starts at.
        let o = Opts::parse(Vec::<String>::new()).unwrap();
        assert_eq!(o.simd, SimdMode::Fixed(LaneWidth::DEFAULT));
        assert_eq!(o.simd.static_width(), crate::simd::active());
        let o = Opts::parse(["--simd", "scalar"]).unwrap();
        assert_eq!(o.simd, SimdMode::Scalar);
        assert_eq!(o.simd.static_width(), LaneWidth::W1);
        // `w1` is an alias for scalar (handy in width sweeps).
        let o = Opts::parse(["--simd=w1"]).unwrap();
        assert_eq!(o.simd, SimdMode::Scalar);
        let o = Opts::parse(["--simd", "w2"]).unwrap();
        assert_eq!(o.simd, SimdMode::Fixed(LaneWidth::W2));
        let o = Opts::parse(["--simd=w4"]).unwrap();
        assert_eq!(o.simd, SimdMode::Fixed(LaneWidth::W4));
        assert_eq!(o.simd.static_width(), LaneWidth::W4);
        let o = Opts::parse(["--simd", "w8"]).unwrap();
        assert_eq!(o.simd, SimdMode::Fixed(LaneWidth::W8));
        let o = Opts::parse(["--simd", "auto"]).unwrap();
        assert_eq!(o.simd, SimdMode::Auto);
        assert_eq!(o.simd.static_width(), LaneWidth::DEFAULT);
        assert!(Opts::parse(["--simd", "w16"]).is_err());
        assert!(Opts::parse(["--simd", "avx"]).is_err());
        assert!(Opts::parse(["--simd"]).is_err());
    }

    #[test]
    fn transport_modes() {
        let o = Opts::parse(Vec::<String>::new()).unwrap();
        assert_eq!(o.transport, TransportMode::Channel);
        assert_eq!(o.recv_deadline_ms, 10_000);
        let o = Opts::parse(["--transport", "channel"]).unwrap();
        assert_eq!(o.transport, TransportMode::Channel);
        let o = Opts::parse(["--transport", "tcp"]).unwrap();
        assert_eq!(o.transport, TransportMode::Tcp(None));
        let o = Opts::parse(["--transport=tcp:127.0.0.1:9100"]).unwrap();
        assert_eq!(
            o.transport,
            TransportMode::Tcp(Some("127.0.0.1:9100".to_string()))
        );
        let o = Opts::parse(["--recv-deadline-ms", "2500"]).unwrap();
        assert_eq!(o.recv_deadline_ms, 2500);
        assert!(Opts::parse(["--transport", "udp"]).is_err());
        assert!(Opts::parse(["--transport", "tcp:"]).is_err());
        assert!(Opts::parse(["--recv-deadline-ms", "0"]).is_err());
    }

    #[test]
    fn pin_modes() {
        let o = Opts::parse(Vec::<String>::new()).unwrap();
        assert_eq!(o.pin, PinMode::None);
        assert!(!o.pin.enabled());
        let o = Opts::parse(["--pin", "node0"]).unwrap();
        assert_eq!(o.pin, PinMode::Nodes(vec![0]));
        assert_eq!(o.pin.requested_nodes(), &[0]);
        let o = Opts::parse(["--pin=node0,node1"]).unwrap();
        assert_eq!(o.pin, PinMode::Nodes(vec![0, 1]));
        let o = Opts::parse(["--pin", "all"]).unwrap();
        assert_eq!(o.pin, PinMode::All);
        assert!(o.pin.enabled());
        assert!(o.pin.requested_nodes().is_empty());
        let o = Opts::parse(["--pin", "none"]).unwrap();
        assert_eq!(o.pin, PinMode::None);
        // Duplicates collapse; order is preserved.
        let o = Opts::parse(["--pin", "node1,node0,node1"]).unwrap();
        assert_eq!(o.pin, PinMode::Nodes(vec![1, 0]));
        // Unknown/malformed node ids are rejected at parse time.
        assert!(Opts::parse(["--pin", "node"]).is_err());
        assert!(Opts::parse(["--pin", "nodeX"]).is_err());
        assert!(Opts::parse(["--pin", "0"]).is_err());
        assert!(Opts::parse(["--pin", "sock1"]).is_err());
        assert!(Opts::parse(["--pin", "node0,,node1"]).is_err());
        assert!(Opts::parse(["--pin", ""]).is_err());
        assert!(Opts::parse(["--pin"]).is_err());
    }

    #[test]
    fn grid_specs() {
        let o = Opts::parse(Vec::<String>::new()).unwrap();
        assert_eq!(o.grid, None);
        let o = Opts::parse(["--grid", "2x2x2"]).unwrap();
        assert_eq!(
            o.grid,
            Some(GridSpec {
                nx: 2,
                ny: 2,
                nz: 2
            })
        );
        assert_eq!(o.grid.unwrap().ranks(), 8);
        assert_eq!(o.grid.unwrap().to_string(), "2x2x2");
        let o = Opts::parse(["--grid=1x1x3"]).unwrap();
        assert_eq!(
            o.grid,
            Some(GridSpec {
                nx: 1,
                ny: 1,
                nz: 3
            })
        );
        assert!(Opts::parse(["--grid", "2x2"]).is_err());
        assert!(Opts::parse(["--grid", "2x2x0"]).is_err());
        assert!(Opts::parse(["--grid", "2x2x2x2"]).is_err());
        assert!(Opts::parse(["--grid", "axbxc"]).is_err());
        assert!(Opts::parse(["--grid"]).is_err());
    }

    #[test]
    fn live_metrics_and_fault_flags() {
        let o = Opts::parse(Vec::<String>::new()).unwrap();
        assert_eq!(o.live_metrics, None);
        assert_eq!(o.die_at, Vec::new());
        assert_eq!(o.slow_rank, None);
        // Bare flag samples every step and must not eat the next token.
        let o = Opts::parse(["--live-metrics", "--q"]).unwrap();
        assert_eq!(o.live_metrics, Some(1));
        assert!(o.quiet);
        let o = Opts::parse(["--live-metrics=10"]).unwrap();
        assert_eq!(o.live_metrics, Some(10));
        assert!(Opts::parse(["--live-metrics=0"]).is_err());
        assert!(Opts::parse(["--live-metrics=x"]).is_err());

        let o = Opts::parse(["--die-at", "1:25"]).unwrap();
        assert_eq!(o.die_at, vec![(1, 25)]);
        let o = Opts::parse(["--slow-rank=2:40"]).unwrap();
        assert_eq!(o.slow_rank, Some((2, 40)));
        assert!(Opts::parse(["--die-at", "25"]).is_err());
        assert!(Opts::parse(["--slow-rank", "x:3"]).is_err());
        assert!(Opts::parse(["--die-at"]).is_err());
    }

    #[test]
    fn die_at_takes_a_comma_list() {
        // One kill per recovery attempt: rank 1 at cycle 40 first, then
        // rank 3 at cycle 55 after the respawn.
        let o = Opts::parse(["--die-at", "1:40,3:55"]).unwrap();
        assert_eq!(o.die_at, vec![(1, 40), (3, 55)]);
        let o = Opts::parse(["--die-at=0:7,2:9,1:11"]).unwrap();
        assert_eq!(o.die_at, vec![(0, 7), (2, 9), (1, 11)]);
        // Any malformed entry poisons the whole list.
        assert!(Opts::parse(["--die-at", "1:40,55"]).is_err());
        assert!(Opts::parse(["--die-at", "1:40,,2:9"]).is_err());
        assert!(Opts::parse(["--die-at", "1:40,x:9"]).is_err());
    }

    #[test]
    fn checkpoint_flags() {
        let o = Opts::parse(Vec::<String>::new()).unwrap();
        assert_eq!(o.ckpt_dir, None);
        assert_eq!(o.ckpt_period, 10);
        assert_eq!(o.resume_cycle, None);
        assert!(!o.respawn);
        let o = Opts::parse(["--ckpt-dir", "/tmp/ck", "--ckpt-period=5", "--respawn"]).unwrap();
        assert_eq!(o.ckpt_dir.as_deref(), Some("/tmp/ck"));
        assert_eq!(o.ckpt_period, 5);
        assert!(o.respawn);
        let o = Opts::parse(["--resume-cycle", "40"]).unwrap();
        assert_eq!(o.resume_cycle, Some(40));
        assert!(Opts::parse(["--respawn=yes"]).is_err());
        assert!(Opts::parse(["--ckpt-period", "x"]).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Opts::parse(["--s"]).is_err());
        assert!(
            Opts::parse(["--q=false"]).is_err(),
            "boolean flags take no value"
        );
        assert!(Opts::parse(["--s", "abc"]).is_err());
        assert!(Opts::parse(["--bogus", "1"]).is_err());
        assert!(Opts::parse(["--s", "0"]).is_err());
        assert!(Opts::parse(["--threads", "0"]).is_err());
    }
}
