//! The workers' idle policy is bounded poll → yield → park. Two failure
//! modes bracket it: a pool that never parks burns its cores while idle,
//! and a pool that spins without yielding starves its own runnable worker
//! when threads outnumber cores (measured: 3× slower than parking).

#![cfg(all(target_os = "linux", target_pointer_width = "64"))]

use obs::SpanKind;
use std::ops::ControlFlow;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use taskrt::topology::{self, Topology};
use taskrt::{GraphBuilder, NodeId, Runtime};

/// Both tests read process-wide quantities (CPU time, affinity of new
/// threads); keep them from overlapping.
static SERIAL: Mutex<()> = Mutex::new(());

/// CPU time consumed by every thread of this process so far.
fn process_cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        // glibc; declared directly because the workspace builds offline
        // (no `libc` crate), as `taskrt::topology` does for affinity.
        fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), which is all clock_gettime requires.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID)");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

#[test]
fn idle_workers_park_instead_of_polling() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let rt = Runtime::new(2);
    rt.spawn(|| ()).get();
    // Far longer than the poll-and-yield bound (~1 ms of an idle core).
    std::thread::sleep(Duration::from_millis(100));
    let before = process_cpu_time();
    std::thread::sleep(Duration::from_millis(100));
    let used = process_cpu_time() - before;
    assert!(
        used < Duration::from_millis(5),
        "an idle 2-worker pool used {used:?} of CPU in 100 ms: workers are not parking"
    );
    // ... and parked workers still wake for work.
    assert_eq!(rt.spawn(|| 5).get(), 5);
}

/// Wall time of 200 rounds of a µs-grain fan-out/fan-in graph on a fresh
/// `threads`-worker pool (best of three).
fn graph_run_time(threads: usize) -> Duration {
    let rt = Runtime::new(threads);
    let mut b = GraphBuilder::new();
    let root = b.task("root", SpanKind::Task, &[], || ());
    let leaves: Vec<NodeId> = (0..16)
        .map(|_| {
            b.task("leaf", SpanKind::Task, &[root], || {
                std::hint::black_box((0..2_000u64).fold(0, |a, x| a ^ x.wrapping_mul(31)));
            })
        })
        .collect();
    b.sync("join", &leaves);
    let mut graph = b.build(&rt);
    (0..3)
        .map(|_| {
            let mut rounds = 0;
            let t0 = Instant::now();
            rt.run_graph(&mut graph, || {
                rounds += 1;
                if rounds < 200 {
                    ControlFlow::Continue(())
                } else {
                    ControlFlow::Break(())
                }
            });
            t0.elapsed()
        })
        .min()
        .expect("three runs")
}

#[test]
fn two_workers_on_one_cpu_do_not_starve_each_other() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Confine this thread — and the workers it is about to spawn, which
    // inherit its affinity — to a single CPU.
    let all_cpus: Vec<usize> = Topology::detect()
        .nodes
        .iter()
        .flat_map(|n| n.cpus.iter().copied())
        .collect();
    let one = all_cpus[..1].to_vec();
    if topology::pin_current_thread(&one).is_err() {
        eprintln!("skipped: sched_setaffinity unsupported here");
        return;
    }
    let one_worker = graph_run_time(1);
    let two_workers = graph_run_time(2);
    let _ = topology::pin_current_thread(&all_cpus);
    assert!(
        two_workers < 3 * one_worker,
        "2 workers on one CPU took {two_workers:?} against {one_worker:?} for 1 worker: \
         an idle worker is spinning in the way of the one with work"
    );
}
