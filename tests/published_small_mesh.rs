//! The published LULESH 2.0 answer for the 10³ mesh, pinned in tier-1:
//! run to stop time, every driver must take 231 iterations and end with
//! final origin energy `2.720531e4`, as the CSV prints it. This is the
//! run that exercises the stop-time / `max_cycles` logic end to end — the
//! last-step snap onto `stoptime` in the serial and fork-join loops, and
//! in the task driver's iteration epilogue on the workers.
//!
//! The 30³ answer (932 iterations, `2.025075e5`) is pinned too, behind
//! `#[ignore]` because it takes tens of seconds; `scripts/check.sh` runs it
//! in release. Its regions repeat the EOS 2 and 20 times, so the fork-join
//! driver's reference plan runs the OpenMP code's EOS ladder end to end.

use lulesh::core::{serial, Domain, RunReport, SimState};
use lulesh::omp::OmpLulesh;
use lulesh::task::{AutoTuneConfig, Features, PartitionPlan, PartitionPolicy, TaskLulesh};
use std::sync::Arc;
use std::time::Duration;

const SIZE: usize = 10;
const REGIONS: usize = 11;
const NO_CYCLE_LIMIT: u64 = u64::MAX;

fn domain() -> Domain {
    Domain::build(SIZE, REGIONS, 1, 1, 0)
}

/// Iteration count and energy exactly as the binaries' CSV row has them.
fn published(d: &Domain, state: &SimState) -> (String, String) {
    let row = RunReport::collect(d, state, 1, Duration::ZERO).csv_row();
    let fields: Vec<&str> = row.split(',').collect();
    (fields[2].to_string(), fields[5].to_string())
}

fn assert_published(what: &str, d: &Domain, state: &SimState) {
    assert_published_as(what, d, state, ("231", "2.720531e4"));
}

fn assert_published_as(what: &str, d: &Domain, state: &SimState, expected: (&str, &str)) {
    let expected = (expected.0.to_string(), expected.1.to_string());
    assert_eq!(published(d, state), expected, "{what}");
    assert_eq!(state.time, d.params.stoptime, "{what}: stops on stop time");
}

#[test]
#[ignore = "tens of seconds; scripts/check.sh runs it in release"]
fn every_interpreter_reproduces_the_published_s30_answer() {
    let domain = || Domain::build(30, REGIONS, 1, 1, 0);
    let expected = ("932", "2.025075e5");
    let d = domain();
    let state = serial::run(&d, NO_CYCLE_LIMIT).unwrap();
    assert_published_as("serial, s30", &d, &state, expected);

    let d = domain();
    let state = OmpLulesh::new(2).run(&d, NO_CYCLE_LIMIT).unwrap();
    assert_published_as("omp, 2 threads, s30", &d, &state, expected);

    let d = domain();
    let state = OmpLulesh::new(2)
        .reference()
        .run(&d, NO_CYCLE_LIMIT)
        .unwrap();
    assert_published_as("omp reference, 2 threads, s30", &d, &state, expected);

    let d = Arc::new(domain());
    let state = TaskLulesh::new(2)
        .run(&d, PartitionPlan::for_size_threads(30, 2), NO_CYCLE_LIMIT)
        .unwrap();
    assert_published_as("task, 2 threads, s30", &d, &state, expected);
}

#[test]
fn serial_and_fork_join_reproduce_the_published_answer() {
    let d = domain();
    let state = serial::run(&d, NO_CYCLE_LIMIT).unwrap();
    assert_published("serial", &d, &state);

    let d = domain();
    let state = OmpLulesh::new(2).run(&d, NO_CYCLE_LIMIT).unwrap();
    assert_published("omp, 2 threads", &d, &state);

    let d = domain();
    let state = OmpLulesh::new(2)
        .reference()
        .run(&d, NO_CYCLE_LIMIT)
        .unwrap();
    assert_published("omp reference, 2 threads", &d, &state);
}

#[test]
fn task_driver_reproduces_the_published_answer() {
    let fixed = PartitionPolicy::Fixed(PartitionPlan::for_size_threads(SIZE, 2));
    let auto = PartitionPolicy::Auto(AutoTuneConfig::default());
    let unchained = Features {
        chain_continuations: false,
        ..Features::default()
    };
    for (what, features, policy) in [
        (
            "task, default features, fixed plan",
            Features::default(),
            fixed,
        ),
        (
            "task, default features, auto plan",
            Features::default(),
            auto,
        ),
        ("task, naive features", Features::naive(), fixed),
        ("task, continuation chains off", unchained, fixed),
    ] {
        let d = Arc::new(domain());
        let state = TaskLulesh::with_features(2, features)
            .run_policy(&d, policy, NO_CYCLE_LIMIT)
            .unwrap();
        assert_published(what, &d, &state);
    }
}

#[test]
fn task_driver_honours_the_cycle_limit() {
    // The other exit of the epilogue: stop on `max_cycles`, short of stop
    // time, with exactly that many iterations executed.
    let d = Arc::new(domain());
    let state = TaskLulesh::new(2)
        .run(&d, PartitionPlan::for_size_threads(SIZE, 2), 17)
        .unwrap();
    assert_eq!(state.cycle, 17);
    assert!(state.time < d.params.stoptime);
    let d_ref = domain();
    let state_ref = serial::run(&d_ref, 17).unwrap();
    assert_eq!(state.time, state_ref.time);
    assert_eq!(published(&d, &state), published(&d_ref, &state_ref));
}
