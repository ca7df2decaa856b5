//! Validate an emitted trace file. A Chrome trace (a top-level JSON array)
//! must be well-formed, with non-negative timestamps (a span predating the
//! aligned epoch means clock correction went wrong), known `cat` values,
//! rank-lane `process_name` metadata on merged multi-rank traces, and
//! (optionally) a minimum number of `"cat": "barrier"` events. Used by
//! `scripts/check.sh` to prove `--trace`/`--trace-dir` output is loadable.
//!
//! A per-rank spans file (`rank<R>.spans.json`, a JSON object — what every
//! rank of a `--trace-dir` run writes, failed ranks included) is read back
//! with [`obs::dist::RankTrace::parse`] instead, and the linter reports its
//! span count and how many of those are `parcel-error-*` spans: the typed
//! transport failures the rank observed.
//!
//! Usage: `trace_lint <file.json> [min_barrier_events]`

use std::process::exit;

fn main() {
    let mut args = std::env::args().skip(1);
    let path = match args.next() {
        Some(p) => p,
        None => {
            eprintln!("usage: trace_lint <trace.json> [min_barrier_events]");
            exit(2);
        }
    };
    let min_barriers: usize = args
        .next()
        .map(|s| s.parse().expect("min_barrier_events must be an integer"))
        .unwrap_or(0);

    let content = match std::fs::read_to_string(&path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{path}: {e}");
            exit(1);
        }
    };
    // A spans file is one JSON object; a Chrome trace is a top-level array.
    // Sniff the content rather than the filename so renamed files still lint.
    let summary = if content.trim_start().starts_with('{') {
        obs::dist::RankTrace::parse(&content).map(|t| {
            let errors = t
                .spans
                .iter()
                .filter(|s| s.label.starts_with("parcel-error-"))
                .count();
            format!(
                "rank trace, rank {}, {} spans, {errors} error span{}",
                t.rank,
                t.spans.len(),
                if errors == 1 { "" } else { "s" }
            )
        })
    } else {
        obs::dist::lint_chrome_trace(&content, min_barriers).map(|stats| {
            format!(
                "{} events, {} barriers, {} rank{}",
                stats.events,
                stats.barriers,
                stats.pids,
                if stats.pids == 1 { "" } else { "s" }
            )
        })
    };
    match summary {
        Ok(s) => println!("{path}: OK ({s})"),
        Err(e) => {
            eprintln!("{path}: {e}");
            exit(1);
        }
    }
}
