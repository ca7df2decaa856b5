//! The simulated machine: core count, SMT behaviour, and scheduling
//! overhead parameters.

/// Parameters of the simulated multicore (defaults model the paper's
/// AMD EPYC 7443P testbed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineParams {
    /// Execution threads the runtime uses.
    pub threads: usize,
    /// Physical cores; threads beyond this share cores via SMT.
    pub physical_cores: usize,
    /// Combined throughput of two SMT siblings relative to one thread on
    /// the core (1.0 = no benefit, 2.0 = perfect doubling). The paper
    /// observes a slight *slowdown* past one thread per core ("more
    /// interference than speed-up"), i.e. a value slightly below 1.
    pub smt_yield: f64,
    /// Per-task scheduling overhead of the AMT runtime (creation, queue
    /// operations, context switch), in ns of CPU work.
    pub task_overhead_ns: f64,
    /// Fork overhead of an OpenMP parallel region, in ns.
    pub fork_ns: f64,
    /// Per-chunk dequeue cost of `schedule(dynamic)` (an atomic fetch-add
    /// plus dispatch), in ns — far cheaper than an AMT task spawn.
    pub dynamic_dequeue_ns: f64,
    /// Barrier overhead: `base + log2(threads) · log_factor`, in ns.
    pub barrier_base_ns: f64,
    /// Barrier overhead growth per doubling of threads, in ns.
    pub barrier_log_ns: f64,
    /// Relative per-chunk/per-task execution-time jitter (cache conflicts,
    /// NUMA placement, frequency). Statically scheduled loops wait for the
    /// slowest chunk; work stealing absorbs the variance. This is what caps
    /// the OpenMP productive ratio in the paper's Figure 11.
    pub chunk_variance: f64,
    /// Peak slowdown of memory-bound kernel portions when all cores stream
    /// concurrently (DRAM bandwidth contention). Kernels using task-local
    /// scratch (paper trick T6) carry a low memory weight and largely avoid
    /// this; the reference's global scratch arrays do not.
    pub bw_penalty: f64,
}

impl MachineParams {
    /// The paper's testbed: 24-core EPYC 7443P. Overheads are calibrated so
    /// that the single-thread HPX/OpenMP relation and the small-size
    /// barrier-bound behaviour of the paper hold (see DESIGN.md §2).
    pub fn epyc_7443p(threads: usize) -> Self {
        Self {
            threads,
            physical_cores: 24,
            smt_yield: 0.92,
            task_overhead_ns: 4000.0,
            fork_ns: 1500.0,
            dynamic_dequeue_ns: 150.0,
            barrier_base_ns: 1500.0,
            barrier_log_ns: 2200.0,
            chunk_variance: 0.55,
            bw_penalty: 0.55,
        }
    }

    /// Bandwidth-contention factor for the current thread count in
    /// `[0, bw_penalty]`: zero for one thread, saturating once every
    /// physical core streams.
    pub fn bw_factor(&self) -> f64 {
        if self.threads <= 1 {
            return 0.0;
        }
        let t = (self.threads.min(self.physical_cores) - 1) as f64;
        let p = (self.physical_cores - 1).max(1) as f64;
        // Quadratic onset: a few streaming cores fit within the bandwidth
        // budget; contention bites as the socket saturates.
        let frac = (t / p).min(1.0);
        self.bw_penalty * frac * frac
    }

    /// Effective jitter amplitude for a chunk/task of `items` iterations:
    /// the CLT shrinks relative variance with chunk size (∝ 1/√items), but
    /// a persistent floor remains (NUMA distance, per-core data placement),
    /// which is what caps the reference's productive ratio at large sizes.
    pub fn jitter_amplitude(&self, items: usize) -> f64 {
        const REF_ITEMS: f64 = 256.0;
        const PERSISTENT_FLOOR: f64 = 0.4;
        let clt = (REF_ITEMS / items.max(1) as f64).sqrt().min(1.0);
        // The persistent component models *cross-core* asymmetry (NUMA
        // distance, per-core data placement). It vanishes on one thread and
        // ramps up as threads spread across the socket's CCXs.
        let spread = if self.physical_cores > 1 {
            ((self.threads.min(self.physical_cores) - 1) as f64 / (self.physical_cores - 1) as f64)
                .min(1.0)
        } else {
            0.0
        };
        let floor = PERSISTENT_FLOOR * spread;
        self.chunk_variance * clt.max(floor)
    }

    /// Deterministic execution-time jitter in `[0, 1)` for entity `seed`
    /// (a splitmix-style hash — same inputs, same jitter). Consumers center
    /// it (`jitter − 0.5`) so the perturbation is zero-mean: it models
    /// variance around the calibrated kernel cost, not added work.
    pub fn jitter(seed: u64) -> f64 {
        let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Per-thread execution speed factor in `(0, 1]`: 1 while every thread
    /// has its own core; oversubscribed threads share core throughput with
    /// the configured SMT yield.
    pub fn thread_speed(&self) -> f64 {
        let t = self.threads as f64;
        let p = self.physical_cores as f64;
        if t <= p {
            return 1.0;
        }
        // Cores running two threads contribute `smt_yield`, the rest 1.0.
        let doubled = (t - p).min(p);
        let total_throughput = (p - doubled) + doubled * self.smt_yield;
        (total_throughput / t).min(1.0)
    }

    /// Barrier cost for the current thread count, in ns (zero for a single
    /// thread — no synchronization needed).
    pub fn barrier_ns(&self) -> f64 {
        if self.threads <= 1 {
            0.0
        } else {
            self.barrier_base_ns + (self.threads as f64).log2() * self.barrier_log_ns
        }
    }

    /// Fork (region entry) cost, zero for one thread.
    pub fn fork_overhead_ns(&self) -> f64 {
        if self.threads <= 1 {
            0.0
        } else {
            self.fork_ns
        }
    }
}

/// Result of simulating one iteration (or one trace) on the machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimResult {
    /// Simulated wall time in ns.
    pub makespan_ns: f64,
    /// Σ productive (kernel) ns over all threads.
    pub busy_ns: f64,
    /// Tasks (or region-chunks) executed.
    pub tasks: usize,
}

impl SimResult {
    /// Productive-time ratio: Σ busy / (threads × makespan) — Figure 11's
    /// metric.
    pub fn utilization(&self, threads: usize) -> f64 {
        if self.makespan_ns <= 0.0 {
            return 0.0;
        }
        (self.busy_ns / (self.makespan_ns * threads as f64)).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_speed_full_below_core_count() {
        for t in [1, 8, 24] {
            assert_eq!(MachineParams::epyc_7443p(t).thread_speed(), 1.0);
        }
    }

    #[test]
    fn thread_speed_drops_with_smt() {
        let m32 = MachineParams::epyc_7443p(32);
        let m48 = MachineParams::epyc_7443p(48);
        assert!(m32.thread_speed() < 1.0);
        assert!(m48.thread_speed() < m32.thread_speed());
        // 48 threads on 24 cores with yield 0.92: speed = 0.92/2 = 0.46.
        assert!((m48.thread_speed() - 0.92 / 2.0).abs() < 1e-12);
    }

    #[test]
    fn total_throughput_drops_with_smt() {
        // The paper's SMT observation: two threads per core have "more
        // interference than speed-up" — total throughput *decreases* when
        // oversubscribing, so 32/48-thread runtimes tick back up.
        let m48 = MachineParams::epyc_7443p(48);
        let total = m48.thread_speed() * 48.0;
        assert!((total - 24.0 * 0.92).abs() < 1e-9);
        assert!(total < 24.0);
    }

    #[test]
    fn bw_factor_zero_at_one_thread_and_saturates() {
        assert_eq!(MachineParams::epyc_7443p(1).bw_factor(), 0.0);
        let f24 = MachineParams::epyc_7443p(24).bw_factor();
        let f48 = MachineParams::epyc_7443p(48).bw_factor();
        assert!(f24 > 0.0);
        assert_eq!(f24, f48, "saturates at the core count");
        assert!(f24 <= MachineParams::epyc_7443p(24).bw_penalty);
    }

    #[test]
    fn jitter_amplitude_shrinks_with_chunk_size_to_a_floor() {
        let m = MachineParams::epyc_7443p(24);
        let small = m.jitter_amplitude(16);
        let mid = m.jitter_amplitude(512);
        let huge = m.jitter_amplitude(10_000_000);
        assert!(small > mid && mid > huge, "{small} {mid} {huge}");
        assert_eq!(small, m.chunk_variance, "tiny chunks see the full variance");
        assert!(
            (huge - 0.4 * m.chunk_variance).abs() < 1e-12,
            "persistent floor"
        );
        // Single-threaded machines see no cross-core asymmetry, and the
        // floor ramps up with thread spread.
        let m1 = MachineParams::epyc_7443p(1);
        assert!(m1.jitter_amplitude(10_000_000) < 0.01 * m1.chunk_variance);
        let m4 = MachineParams::epyc_7443p(4);
        assert!(m4.jitter_amplitude(10_000_000) < m.jitter_amplitude(10_000_000));
    }

    #[test]
    fn jitter_is_deterministic_and_unit_range() {
        for seed in 0..1000u64 {
            let j = MachineParams::jitter(seed);
            assert!((0.0..1.0).contains(&j));
            assert_eq!(j, MachineParams::jitter(seed));
        }
        // Not constant.
        assert_ne!(MachineParams::jitter(1), MachineParams::jitter(2));
    }

    #[test]
    fn barrier_grows_with_threads() {
        let m1 = MachineParams::epyc_7443p(1);
        let m2 = MachineParams::epyc_7443p(2);
        let m24 = MachineParams::epyc_7443p(24);
        assert_eq!(m1.barrier_ns(), 0.0);
        assert!(m2.barrier_ns() > 0.0);
        assert!(m24.barrier_ns() > m2.barrier_ns());
    }

    #[test]
    fn utilization_bounds() {
        let r = SimResult {
            makespan_ns: 100.0,
            busy_ns: 150.0,
            tasks: 3,
        };
        assert!((r.utilization(2) - 0.75).abs() < 1e-12);
        let r2 = SimResult {
            makespan_ns: 0.0,
            busy_ns: 0.0,
            tasks: 0,
        };
        assert_eq!(r2.utilization(4), 0.0);
    }
}
