//! One *block*: one invocation of a release CLI binary, timed three ways
//! (its own reported loop seconds, our wall clock, the kernel's rusage)
//! and checked against the workload's pinned physics.
//!
//! The CLI flags and the CSV row are the runner's whole contract with
//! the program; nothing here links a workspace crate.

use std::io::Read;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The `--q` CSV row: `size,regions,iterations,threads,runtime,result`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsvRow {
    pub size: u64,
    pub regions: u64,
    pub iterations: u64,
    pub threads: u64,
    /// Loop seconds as the program measured them.
    pub runtime_s: f64,
    /// Final origin energy, verbatim (`2.720531e4`): compared as text so
    /// the check is exactly the one a user does by eye.
    pub result: String,
}

/// The CSV header every binary prints before its row.
pub const CSV_HEADER: &str = "size,regions,iterations,threads,runtime,result";

/// Parse a block's stdout: the header line, then one row, nothing after.
pub fn parse_csv(stdout: &str) -> Result<CsvRow, String> {
    let mut lines = stdout.lines().map(str::trim).filter(|l| !l.is_empty());
    let header = lines.next().ok_or("no output")?;
    if header != CSV_HEADER {
        return Err(format!("unexpected header '{header}'"));
    }
    let row = lines.next().ok_or("header but no CSV row")?;
    if let Some(extra) = lines.next() {
        return Err(format!("unexpected line after the row: '{extra}'"));
    }
    let f: Vec<&str> = row.split(',').collect();
    if f.len() != 6 {
        return Err(format!("row has {} fields, expected 6: '{row}'", f.len()));
    }
    let int = |i: usize, what: &str| {
        f[i].parse::<u64>()
            .map_err(|_| format!("bad {what} '{}'", f[i]))
    };
    let runtime_s = f[4]
        .parse::<f64>()
        .ok()
        .filter(|t| t.is_finite() && *t > 0.0)
        .ok_or_else(|| format!("bad runtime '{}'", f[4]))?;
    if f[5].parse::<f64>().is_err() {
        return Err(format!("bad result '{}'", f[5]));
    }
    Ok(CsvRow {
        size: int(0, "size")?,
        regions: int(1, "regions")?,
        iterations: int(2, "iterations")?,
        threads: int(3, "threads")?,
        runtime_s,
        result: f[5].to_string(),
    })
}

/// What the kernel charged a finished child (and the descendants it
/// waited for: the TCP launcher's rank processes roll up into it).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Usage {
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set, KiB.
    pub maxrss_kb: u64,
}

/// One block's measurements. `row` is `Err` with the reason when the
/// block failed (non-zero exit, timeout, no or malformed CSV, wrong
/// physics); the timings of a failed block are never used.
#[derive(Debug, Clone)]
pub struct Block {
    pub wall_s: f64,
    pub usage: Usage,
    pub row: Result<CsvRow, String>,
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals then fourteen longs, of
/// which only `ru_maxrss` is read.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

const SIGKILL: i32 = 9;

/// Block until `pid` ends; its exit code (`Err` names the signal) and
/// the rusage of exactly that child.
fn wait_with_usage(pid: i32) -> (Result<i32, String>, Usage) {
    let mut status = 0i32;
    // SAFETY: `Rusage` is plain integers, so all-zero is a valid value.
    let mut ru: Rusage = unsafe { std::mem::zeroed() };
    // SAFETY: both pointers are to live, correctly laid-out locals, and
    // `pid` is a child of this process that nothing else waits for (the
    // `Child` handle is never waited on).
    let rc = unsafe { wait4(pid, &mut status, 0, &mut ru) };
    if rc != pid {
        let err = std::io::Error::last_os_error();
        return (Err(format!("wait4 failed: {err}")), Usage::default());
    }
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    let usage = Usage {
        cpu_s: secs(&ru.utime) + secs(&ru.stime),
        maxrss_kb: ru.maxrss.max(0) as u64,
    };
    let code = if status & 0x7f == 0 {
        Ok((status >> 8) & 0xff)
    } else {
        Err(format!("killed by signal {}", status & 0x7f))
    };
    (code, usage)
}

/// Run `bin args…` to completion, at most `limit` long. The child leads
/// its own process group so a timeout also reaches the TCP launcher's
/// rank processes.
pub fn run_block(bin: &Path, args: &[String], limit: Duration) -> Block {
    let t0 = Instant::now();
    let spawned = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .process_group(0)
        .spawn();
    let mut child = match spawned {
        Ok(c) => c,
        Err(e) => {
            return Block {
                wall_s: t0.elapsed().as_secs_f64(),
                usage: Usage::default(),
                row: Err(format!("cannot start {}: {e}", bin.display())),
            }
        }
    };
    let pid = child.id() as i32;

    // The watchdog sleeps on the channel: dropping `done` wakes it at
    // once, a timeout makes it kill the whole group.
    let (done, watch) = mpsc::channel::<()>();
    let (exit, usage, timed_out) = std::thread::scope(|s| {
        let dog = s.spawn(move || {
            let expired = matches!(
                watch.recv_timeout(limit),
                Err(mpsc::RecvTimeoutError::Timeout)
            );
            if expired {
                // SAFETY: plain syscall; a negative pid addresses the
                // process group the child was made leader of above.
                unsafe { kill(-pid, SIGKILL) };
            }
            expired
        });
        let (exit, usage) = wait_with_usage(pid);
        drop(done);
        let timed_out = dog.join().expect("watchdog thread does not panic");
        (exit, usage, timed_out)
    });
    let wall_s = t0.elapsed().as_secs_f64();

    // The child has exited, so both pipes are at EOF after what it wrote
    // (two CSV lines; the binaries run with --q).
    let mut stdout = String::new();
    let mut stderr = String::new();
    if let Some(mut p) = child.stdout.take() {
        let _ = p.read_to_string(&mut stdout);
    }
    if let Some(mut p) = child.stderr.take() {
        let _ = p.read_to_string(&mut stderr);
    }

    let row = if timed_out {
        Err(format!("timed out after {:.0} s", limit.as_secs_f64()))
    } else {
        match exit {
            Ok(0) => parse_csv(&stdout),
            Ok(code) => Err(format!(
                "exit code {code}: {}",
                stderr.lines().next().unwrap_or("(no stderr)")
            )),
            Err(sig) => Err(sig),
        }
    };
    Block { wall_s, usage, row }
}

/// The physics pin: a block counts only if it ran the pinned number of
/// iterations on the pinned size and printed the pinned energy.
pub fn check_physics(row: &CsvRow, size: u64, iterations: u64, energy: &str) -> Result<(), String> {
    if row.size != size {
        return Err(format!("size {} ≠ {size}", row.size));
    }
    if row.iterations != iterations {
        return Err(format!(
            "{} iterations, pinned {iterations}",
            row.iterations
        ));
    }
    if row.result != energy {
        return Err(format!("final energy {}, pinned {energy}", row.result));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str =
        "size,regions,iterations,threads,runtime,result\n10,11,231,2,0.128885,2.720531e4\n";

    #[test]
    fn parses_a_good_row() {
        let r = parse_csv(GOOD).unwrap();
        assert_eq!(
            (r.size, r.regions, r.iterations, r.threads),
            (10, 11, 231, 2)
        );
        assert!((r.runtime_s - 0.128885).abs() < 1e-12);
        assert_eq!(r.result, "2.720531e4");
        assert!(check_physics(&r, 10, 231, "2.720531e4").is_ok());
    }

    #[test]
    fn rejects_malformed_output() {
        for (bad, why) in [
            ("", "empty"),
            ("10,11,231,2,0.1,2.7e4\n", "no header"),
            ("size,regions,iterations,threads,runtime,result\n", "no row"),
            (
                "size,regions,iterations,threads,runtime,result\n10,11,231,2,0.1\n",
                "5 fields",
            ),
            (
                "size,regions,iterations,threads,runtime,result\n10,11,x,2,0.1,2.7e4\n",
                "bad int",
            ),
            (
                "size,regions,iterations,threads,runtime,result\n10,11,231,2,0,2.7e4\n",
                "zero time",
            ),
            (
                "size,regions,iterations,threads,runtime,result\n10,11,231,2,NaN,2.7e4\n",
                "nan time",
            ),
            (
                "size,regions,iterations,threads,runtime,result\n10,11,231,2,0.1,abc\n",
                "bad energy",
            ),
            (
                "size,regions,iterations,threads,runtime,result\n10,11,231,2,0.1,2.7e4\nextra\n",
                "trailing",
            ),
        ] {
            assert!(parse_csv(bad).is_err(), "{why} must be rejected");
        }
    }

    #[test]
    fn physics_pin_catches_each_field() {
        let r = parse_csv(GOOD).unwrap();
        assert!(check_physics(&r, 12, 231, "2.720531e4").is_err());
        assert!(check_physics(&r, 10, 230, "2.720531e4").is_err());
        assert!(check_physics(&r, 10, 231, "2.720532e4").is_err());
    }

    #[test]
    fn a_block_reports_exit_codes_timeouts_and_usage() {
        let sh = Path::new("/bin/sh");
        let ok = run_block(
            sh,
            &[
                "-c".into(),
                format!("echo {CSV_HEADER}; echo 10,11,231,2,0.5,2.720531e4"),
            ],
            Duration::from_secs(10),
        );
        assert_eq!(ok.row.as_ref().unwrap().iterations, 231);
        assert!(ok.wall_s > 0.0 && ok.usage.maxrss_kb > 0);

        let failed = run_block(
            sh,
            &["-c".into(), "echo boom >&2; exit 3".into()],
            Duration::from_secs(10),
        );
        assert!(failed.row.unwrap_err().contains("exit code 3: boom"));

        let slow = run_block(
            sh,
            &["-c".into(), "sleep 30".into()],
            Duration::from_millis(100),
        );
        assert!(slow.row.unwrap_err().contains("timed out"));
        assert!(slow.wall_s < 5.0);

        let missing = run_block(Path::new("/nonexistent/bin"), &[], Duration::from_secs(1));
        assert!(missing.row.unwrap_err().contains("cannot start"));
    }
}
