//! The command line every LULESH binary shares, and the token walker each
//! binary extends with its own flags. Every binary honours the artifact's
//! flags — `--s` (size), `--r` (regions), `--i` (iterations), `--b`
//! (balance), `--c` (cost), `--q` (quiet) — plus `--seed` and `--simd`;
//! anything else a binary reads is a row of that binary's [`Cli::flags`].

use crate::mesh::MAX_EDGE;
use crate::simd::LaneWidth;
use crate::types::Index;
use std::str::FromStr;

/// The flags every binary honours, with the reference defaults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Opts {
    /// Problem size (elements per edge), `--s`, at most
    /// [`MAX_EDGE`]. Default 30.
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
    /// Region assignment seed, `--seed` (not in the reference). Default 0.
    pub seed: u64,
    /// Kernel lane width, `--simd scalar|w4|w8`. Default
    /// [`LaneWidth::native`]: w8 on a CPU with AVX-512, w4 elsewhere.
    pub simd: LaneWidth,
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
            seed: 0,
            simd: LaneWidth::native(),
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

/// Stores one flag's value into a command line: `None` for a switch or a
/// bare optional value, the value otherwise.
pub type Setter<C> = fn(&mut C, Option<&str>) -> Result<(), String>;

/// One row of a binary's flag table, which both the walker and the usage
/// line read.
pub struct Flag<C> {
    /// The names the flag answers to, `|`-separated; usage prints the
    /// first.
    pub names: &'static str,
    /// The value's placeholder: `""` for a switch, which takes none, and
    /// `[=…]` for a value that is optional and only given inline.
    pub value: &'static str,
    /// Where the value goes.
    pub set: Setter<C>,
}

impl<C> Flag<C> {
    /// A table row.
    pub fn new(names: &'static str, value: &'static str, set: Setter<C>) -> Self {
        Self { names, value, set }
    }

    /// The name usage prints.
    pub fn name(&self) -> &'static str {
        self.names.split('|').next().unwrap_or_default()
    }
}

/// Parse a flag's value.
pub fn val<V: FromStr>(v: Option<&str>) -> Result<V, String> {
    let raw = v.unwrap_or_default();
    raw.parse().map_err(|_| format!("bad value '{raw}'"))
}

/// Parse a flag's value that must not be zero.
pub fn pos<V: FromStr + Default + PartialEq>(v: Option<&str>) -> Result<V, String> {
    match val(v)? {
        n if n == V::default() => Err("must be positive".into()),
        n => Ok(n),
    }
}

/// Parse a cube edge: positive, and small enough for 32-bit mesh indices.
fn edge(v: Option<&str>) -> Result<Index, String> {
    match pos(v)? {
        s if s > MAX_EDGE => Err(format!(
            "{s} exceeds {MAX_EDGE}, the largest edge whose mesh indices fit 32 bits"
        )),
        s => Ok(s),
    }
}

/// Parse a flag's value into `Some`.
pub fn opt<V: FromStr>(v: Option<&str>) -> Result<Option<V>, String> {
    val(v).map(Some)
}

/// Store a parsed value in `dst`.
pub fn put<V>(dst: &mut V, v: Result<V, String>) -> Result<(), String> {
    *dst = v?;
    Ok(())
}

/// The artifact's rows, which head every binary's table.
fn artifact_flags<C: Cli>() -> Vec<Flag<C>> {
    vec![
        Flag::new("s", "SIZE", |c, v| put(&mut c.opts().size, edge(v))),
        Flag::new("r", "REGIONS", |c, v| put(&mut c.opts().num_reg, pos(v))),
        Flag::new("i", "ITERATIONS", |c, v| {
            put(&mut c.opts().max_cycles, val(v))
        }),
        Flag::new("b", "BALANCE", |c, v| put(&mut c.opts().balance, val(v))),
        Flag::new("c", "COST", |c, v| put(&mut c.opts().cost, val(v))),
        Flag::new("q", "", |c, _| put(&mut c.opts().quiet, Ok(true))),
        Flag::new("seed", "N", |c, v| put(&mut c.opts().seed, val(v))),
        Flag::new("simd", "scalar|w4|w8", |c, v| {
            put(&mut c.opts().simd, val(v))
        }),
    ]
}

/// One flag found on a command line: its row, its value and the tokens
/// it took.
pub type Hit<'f, 'a, C, S> = (&'f Flag<C>, Option<&'a str>, &'a [S]);

/// Split `args` into one [`Hit`] per flag. `--x v`, `--x=v` and `-x v`
/// all match row `x`; a switch and an optional value never take the next
/// token. `-h`/`--help` and a flag no row names are errors.
pub fn walk<'f, 'a, C, S: AsRef<str>>(
    args: &'a [S],
    flags: &'f [Flag<C>],
) -> Result<Vec<Hit<'f, 'a, C, S>>, ParseError> {
    let mut hits = Vec::new();
    let mut i = 0;
    while let Some(arg) = args.get(i).map(AsRef::as_ref) {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v)),
            None => (arg, None),
        };
        let name = flag.trim_start_matches('-');
        let Some(row) = flags.iter().find(|f| f.names.split('|').any(|n| n == name)) else {
            return Err(ParseError(match name {
                "h" | "help" => "help requested".into(),
                _ => format!("unknown flag '{name}'"),
            }));
        };
        let (value, took) = match (row.value, inline) {
            ("", Some(_)) => return Err(ParseError(format!("{flag} takes no value"))),
            (meta, None) if !meta.is_empty() && !meta.starts_with('[') => {
                let missing = || ParseError(format!("{flag} needs a value"));
                (Some(args.get(i + 1).ok_or_else(missing)?.as_ref()), 2)
            }
            (_, inline) => (inline, 1),
        };
        hits.push((row, value, &args[i..i + took]));
        i += took;
    }
    Ok(hits)
}

/// A binary's command line: the artifact's [`Opts`] plus the flags of its
/// own table. A binary accepts exactly the rows of its table.
pub trait Cli: Default {
    /// The binary's own rows, which follow the artifact's in its table.
    fn flags() -> Vec<Flag<Self>>;

    /// The artifact's flags.
    fn opts(&mut self) -> &mut Opts;

    /// Rules across flags, and values that depend on more than one flag,
    /// applied once every flag is stored.
    fn check(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// The whole table: the artifact's rows, then the binary's.
    fn table() -> Vec<Flag<Self>> {
        let mut table = artifact_flags();
        table.extend(Self::flags());
        table
    }

    /// Parse an argument list (without the program name).
    fn parse<S: AsRef<str>>(args: &[S]) -> Result<Self, ParseError> {
        let table = Self::table();
        let mut cli = Self::default();
        for (flag, value, _) in walk(args, &table)? {
            (flag.set)(&mut cli, value)
                .map_err(|e| ParseError(format!("--{}: {e}", flag.name())))?;
        }
        cli.check().map_err(ParseError)?;
        Ok(cli)
    }

    /// The usage line, one `[--name VALUE]` per row of the table.
    fn usage(program: &str) -> String {
        let rows = Self::table().into_iter().map(|f| match f.value {
            v if v.is_empty() || v.starts_with('[') => format!(" [--{}{v}]", f.name()),
            v => format!(" [--{} {v}]", f.name()),
        });
        format!("Usage: {program}{}", rows.collect::<String>())
    }

    /// Parse this process's arguments; on an error (`-h`/`--help`
    /// included) print it and the usage line and exit 2.
    fn from_env(program: &str) -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Self::parse(&args).unwrap_or_else(|e| {
            eprintln!("{e}\n{}", Self::usage(program));
            std::process::exit(2)
        })
    }
}

impl Cli for Opts {
    fn flags() -> Vec<Flag<Self>> {
        Vec::new()
    }

    fn opts(&mut self) -> &mut Opts {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NONE: [&str; 0] = [];

    #[test]
    fn defaults() {
        let o = Opts::parse(&NONE).unwrap();
        assert_eq!(o, Opts::default());
        assert_eq!(o.size, 30);
        assert_eq!(o.num_reg, 11);
    }

    #[test]
    fn reference_style_flags() {
        let o = Opts::parse(&["-s", "45", "-r", "21", "-b", "2", "-c", "3"]).unwrap();
        assert_eq!(o.size, 45);
        assert_eq!(o.num_reg, 21);
        assert_eq!(o.balance, 2);
        assert_eq!(o.cost, 3);
    }

    #[test]
    fn equals_form() {
        let o = Opts::parse(&["--s=60", "--r=16"]).unwrap();
        assert_eq!(o.size, 60);
        assert_eq!(o.num_reg, 16);
    }

    #[test]
    fn simd_modes() {
        // A plain run takes the platform's width, the one the kernels'
        // global starts at: w8 where AVX-512 is detected, w4 elsewhere.
        let o = Opts::parse(&NONE).unwrap();
        assert_eq!(o.simd, LaneWidth::native());
        let avx512 = crate::simd::Isa::detect(LaneWidth::W8) == crate::simd::Isa::Avx512;
        let platform = if avx512 { LaneWidth::W8 } else { LaneWidth::W4 };
        assert_eq!(o.simd, platform);
        let o = Opts::parse(&["--simd", "scalar"]).unwrap();
        assert_eq!(o.simd, LaneWidth::W1);
        let o = Opts::parse(&["--simd=w4"]).unwrap();
        assert_eq!(o.simd, LaneWidth::W4);
        let o = Opts::parse(&["--simd", "w8"]).unwrap();
        assert_eq!(o.simd, LaneWidth::W8);
        assert!(Opts::parse(&["--simd", "w2"]).is_err());
        assert!(Opts::parse(&["--simd=w1"]).is_err());
        assert!(Opts::parse(&["--simd", "auto"]).is_err());
        assert!(Opts::parse(&["--simd", "w16"]).is_err());
        assert!(Opts::parse(&["--simd", "avx"]).is_err());
        assert!(Opts::parse(&["--simd"]).is_err());
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Opts::parse(&["--s"]).is_err());
        assert!(
            Opts::parse(&["--q=false"]).is_err(),
            "boolean flags take no value"
        );
        assert!(Opts::parse(&["--s", "abc"]).is_err());
        assert!(Opts::parse(&["--bogus", "1"]).is_err());
        assert!(Opts::parse(&["--s", "0"]).is_err());
        assert!(Opts::parse(&["--s", "-1"]).is_err());
        assert!(Opts::parse(&["--pin"]).is_err());
        assert!(Opts::parse(&["--pin", "all"]).is_err());
    }

    #[test]
    fn size_is_bounded_by_the_mesh_index_width() {
        // Parsing only: no mesh is built at either size.
        assert_eq!(Opts::parse(&["--s", "812"]).unwrap().size, 812);
        let err = Opts::parse(&["--s=813"]).unwrap_err();
        assert!(err.0.starts_with("--s: 813 exceeds 812"), "{err}");
    }

    #[test]
    fn help_is_an_error_and_usage_lists_the_table() {
        assert_eq!(
            Opts::parse(&["-h"]),
            Err(ParseError("help requested".into()))
        );
        assert!(Opts::parse(&["--help"]).is_err());
        assert_eq!(
            Opts::usage("lulesh-serial"),
            "Usage: lulesh-serial [--s SIZE] [--r REGIONS] [--i ITERATIONS] [--b BALANCE] \
             [--c COST] [--q] [--seed N] [--simd scalar|w4|w8]"
        );
    }

    #[test]
    fn walk_reports_each_flags_tokens() {
        let table = Opts::table();
        let args = ["--s", "6", "--q", "-i=3", "--seed", "-1"];
        let hits = walk(&args, &table).unwrap();
        let got: Vec<_> = hits
            .iter()
            .map(|(f, v, t)| (f.name(), *v, t.len()))
            .collect();
        assert_eq!(
            got,
            [
                ("s", Some("6"), 2),
                ("q", None, 1),
                ("i", Some("3"), 1),
                ("seed", Some("-1"), 2)
            ]
        );
        // A value flag takes the next token even when it looks like a flag.
        assert!(Opts::parse(&["--seed", "-1"]).is_err(), "u64 seed");
    }
}
