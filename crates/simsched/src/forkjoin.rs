//! Analytic simulation of OpenMP-style fork-join execution: a sequence of
//! statically scheduled parallel loops, each ending in a barrier — the
//! execution model of the LULESH reference implementation.

use crate::machine::{MachineParams, SimResult};

/// One `#pragma omp parallel for` loop: `items` iterations at
/// `cost_per_item_ns` each, split contiguously across the threads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Region {
    /// Loop iteration count.
    pub items: usize,
    /// Cost of one iteration, in ns.
    pub cost_per_item_ns: f64,
    /// Memory-bandwidth-bound fraction of the cost (see
    /// [`MachineParams::bw_factor`]).
    pub mem_weight: f64,
}

/// A whole iteration of the fork-join program: parallel regions in order,
/// plus any purely serial work between them.
#[derive(Debug, Clone, Default)]
pub struct ForkJoinTrace {
    /// The parallel loops, in program order.
    pub regions: Vec<Region>,
    /// Serial (master-only) work per iteration, in ns.
    pub serial_ns: f64,
}

impl ForkJoinTrace {
    /// Σ parallel work over all regions, in ns.
    pub fn total_work_ns(&self) -> f64 {
        self.regions
            .iter()
            .map(|r| r.items as f64 * r.cost_per_item_ns)
            .sum()
    }
}

/// Simulate the trace: each region costs the *slowest* thread's chunk plus
/// fork and barrier overhead; threads idle while waiting (the load
/// imbalance + synchronization loss the paper's Figure 11 quantifies).
///
/// Delegates to [`crate::timeline::record_fork_join`] minus the event list
/// so there is exactly one fork-join event loop.
pub fn simulate_fork_join(trace: &ForkJoinTrace, m: &MachineParams) -> SimResult {
    crate::timeline::record_fork_join(trace, m).result
}

/// Simulate the trace with `schedule(dynamic, chunk)` semantics: each
/// region's iterations are grabbed greedily in `chunk`-sized pieces, so
/// per-chunk jitter is absorbed by whichever thread is free — at the price
/// of a dequeue overhead per chunk (modelled with the machine's
/// `task_overhead_ns`, the same atomic-counter-and-dispatch cost class).
/// Still one fork + barrier per region.
pub fn simulate_fork_join_dynamic(
    trace: &ForkJoinTrace,
    m: &MachineParams,
    chunk: usize,
) -> SimResult {
    assert!(chunk > 0);
    let speed = m.thread_speed();
    let t = m.threads;
    let mut makespan = trace.serial_ns;
    let mut busy = trace.serial_ns;
    let mut chunks = 0usize;

    for (ri, region) in trace.regions.iter().enumerate() {
        let contended = 1.0 + region.mem_weight * m.bw_factor();
        // Greedy assignment of jittered chunks to the earliest-free thread.
        let mut free = vec![0.0f64; t];
        let mut k = 0usize;
        let mut begin = 0usize;
        while begin < region.items {
            let len = chunk.min(region.items - begin);
            let jit = 1.0
                + m.jitter_amplitude(len)
                    * (MachineParams::jitter((ri as u64) << 20 | k as u64) - 0.5);
            let ns = (len as f64 * region.cost_per_item_ns * contended * jit
                + m.dynamic_dequeue_ns)
                / speed;
            // Earliest-free thread takes the chunk.
            let (tid, _) = free
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(b.1))
                .expect("at least one thread");
            free[tid] += ns;
            busy += len as f64 * region.cost_per_item_ns * contended * jit / speed;
            chunks += 1;
            begin += len;
            k += 1;
        }
        let span = free.iter().copied().fold(0.0f64, f64::max);
        makespan += m.fork_overhead_ns() + span + m.barrier_ns();
    }

    SimResult {
        makespan_ns: makespan,
        busy_ns: busy,
        tasks: chunks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn machine(threads: usize) -> MachineParams {
        MachineParams {
            threads,
            physical_cores: 64,
            smt_yield: 1.0,
            task_overhead_ns: 0.0,
            fork_ns: 0.0,
            dynamic_dequeue_ns: 0.0,
            barrier_base_ns: 0.0,
            barrier_log_ns: 0.0,
            chunk_variance: 0.0,
            bw_penalty: 0.0,
        }
    }

    #[test]
    fn perfect_scaling_without_overheads() {
        let trace = ForkJoinTrace {
            regions: vec![Region {
                items: 800,
                cost_per_item_ns: 10.0,
                mem_weight: 0.0,
            }],
            serial_ns: 0.0,
        };
        let r1 = simulate_fork_join(&trace, &machine(1));
        let r8 = simulate_fork_join(&trace, &machine(8));
        assert_eq!(r1.makespan_ns, 8000.0);
        assert_eq!(r8.makespan_ns, 1000.0);
        assert_eq!(r8.busy_ns, 8000.0);
    }

    #[test]
    fn barrier_cost_accumulates_per_region() {
        let mut m = machine(4);
        m.barrier_base_ns = 100.0;
        let trace = ForkJoinTrace {
            regions: vec![
                Region {
                    items: 4,
                    cost_per_item_ns: 10.0,
                    mem_weight: 0.0
                };
                30
            ],
            serial_ns: 0.0,
        };
        let r = simulate_fork_join(&trace, &m);
        // 30 regions × (10 work + 100 barrier).
        assert_eq!(r.makespan_ns, 30.0 * 110.0);
        let u = r.utilization(4);
        assert!(
            u < 0.15,
            "barrier-bound loops must show poor utilization: {u}"
        );
    }

    #[test]
    fn single_thread_pays_no_barrier() {
        let mut m = machine(1);
        m.barrier_base_ns = 1_000_000.0;
        m.fork_ns = 1_000_000.0;
        let trace = ForkJoinTrace {
            regions: vec![Region {
                items: 10,
                cost_per_item_ns: 5.0,
                mem_weight: 0.0,
            }],
            serial_ns: 7.0,
        };
        let r = simulate_fork_join(&trace, &m);
        assert_eq!(r.makespan_ns, 57.0);
    }

    #[test]
    fn remainder_items_create_imbalance() {
        // 5 items on 4 threads: slowest thread has 2.
        let trace = ForkJoinTrace {
            regions: vec![Region {
                items: 5,
                cost_per_item_ns: 100.0,
                mem_weight: 0.0,
            }],
            serial_ns: 0.0,
        };
        let r = simulate_fork_join(&trace, &machine(4));
        assert_eq!(r.makespan_ns, 200.0);
        assert_eq!(r.busy_ns, 500.0);
    }

    #[test]
    fn dynamic_absorbs_jitter_better_than_static() {
        // With per-chunk jitter, dynamic scheduling's greedy assignment
        // beats the static split's wait-for-the-slowest.
        let mut m = machine(8);
        m.chunk_variance = 0.5;
        let trace = ForkJoinTrace {
            regions: vec![Region {
                items: 4096,
                cost_per_item_ns: 50.0,
                mem_weight: 0.0,
            }],
            serial_ns: 0.0,
        };
        let stat = simulate_fork_join(&trace, &m);
        let dyn_ = simulate_fork_join_dynamic(&trace, &m, 64);
        assert!(
            dyn_.makespan_ns < stat.makespan_ns,
            "dynamic {} !< static {}",
            dyn_.makespan_ns,
            stat.makespan_ns
        );
    }

    #[test]
    fn dynamic_pays_dequeue_overhead_without_jitter() {
        let mut m = machine(4);
        m.dynamic_dequeue_ns = 100.0;
        let trace = ForkJoinTrace {
            regions: vec![Region {
                items: 1000,
                cost_per_item_ns: 10.0,
                mem_weight: 0.0,
            }],
            serial_ns: 0.0,
        };
        let stat = simulate_fork_join(&trace, &m);
        let dyn_ = simulate_fork_join_dynamic(&trace, &m, 10);
        assert!(
            dyn_.makespan_ns > stat.makespan_ns,
            "per-chunk overhead must cost something: {} !> {}",
            dyn_.makespan_ns,
            stat.makespan_ns
        );
        // Work conserved either way (no jitter, no contention).
        assert!((dyn_.busy_ns - stat.busy_ns).abs() < 1e-6);
    }

    proptest! {
        /// Makespan is bounded below by work/threads and above by the
        /// serial time plus overheads; utilization stays in (0, 1].
        #[test]
        fn fork_join_bounds(
            items in proptest::collection::vec(1usize..5000, 1..40),
            threads in 1usize..32,
            barrier in 0.0f64..5000.0,
        ) {
            let trace = ForkJoinTrace {
                regions: items.iter().map(|&n| Region { items: n, cost_per_item_ns: 7.0, mem_weight: 0.0 }).collect(),
                serial_ns: 0.0,
            };
            let mut m = machine(threads);
            m.barrier_base_ns = barrier;
            let r = simulate_fork_join(&trace, &m);
            let work = trace.total_work_ns();
            prop_assert!(r.busy_ns >= work - 1e-6);
            prop_assert!(r.makespan_ns >= work / threads as f64 - 1e-6);
            let serial = simulate_fork_join(&trace, &machine(1));
            // More threads never beat perfect scaling of the 1-thread time.
            prop_assert!(r.makespan_ns * threads as f64 >= serial.makespan_ns - 1e-6);
            prop_assert!(r.utilization(threads) <= 1.0 + 1e-12);
        }

        /// Adding threads with zero overheads never slows a loop down.
        #[test]
        fn monotone_without_overheads(n in 1usize..10_000) {
            let trace = ForkJoinTrace {
                regions: vec![Region { items: n, cost_per_item_ns: 3.0, mem_weight: 0.0 }],
                serial_ns: 0.0,
            };
            let mut prev = f64::INFINITY;
            for t in [1usize, 2, 4, 8, 16] {
                let r = simulate_fork_join(&trace, &machine(t));
                prop_assert!(r.makespan_ns <= prev + 1e-9);
                prev = r.makespan_ns;
            }
        }
    }
}
