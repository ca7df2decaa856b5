//! Discrete-event simulation of the AMT runtime's work-stealing scheduler:
//! greedy list scheduling of a task DAG on `threads` identical workers,
//! with a per-task scheduling overhead. Work stealing with idle workers is
//! well-approximated by greedy list scheduling (any idle worker immediately
//! takes any ready task), which is also deterministic — ties break on task
//! id, so the same graph always yields the same makespan.

// Index-based initialization keeps task ids explicit (they key the jitter hash).
#![allow(clippy::needless_range_loop)]
use crate::machine::{MachineParams, SimResult};

/// One node of the simulated task graph. `cost_ns == 0` marks a pure
/// synchronization node (a `when_all` barrier): it occupies no worker and
/// completes the instant its dependencies do.
#[derive(Debug, Clone, Default)]
pub struct SimTask {
    /// Phase label (e.g. `"stress"`, `"eos"`), matching the span labels
    /// the instrumented runtimes record — the key the drift report joins
    /// simulated and measured time on. Empty for unlabeled graphs.
    pub label: &'static str,
    /// Productive work in the task body, in ns.
    pub cost_ns: f64,
    /// Indices of tasks that must finish first.
    pub deps: Vec<usize>,
    /// Fraction of the cost that is memory-bandwidth bound (subject to the
    /// machine's contention factor). Task-local-scratch kernels are low.
    pub mem_weight: f64,
    /// Loop iterations inside the task (drives the jitter amplitude).
    pub items: usize,
}

/// A DAG of [`SimTask`]s. Build with [`TaskGraph::add`]; dependencies must
/// point at already-added tasks (guaranteeing acyclicity).
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    /// The tasks, in insertion order.
    pub tasks: Vec<SimTask>,
}

impl TaskGraph {
    /// Empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a compute-bound task; returns its id. All `deps` must be ids of
    /// earlier tasks.
    pub fn add(&mut self, cost_ns: f64, deps: Vec<usize>) -> usize {
        self.add_weighted(cost_ns, deps, 0.0, 1_000_000)
    }

    /// [`TaskGraph::add`] with a phase label.
    pub fn add_labeled(&mut self, label: &'static str, cost_ns: f64, deps: Vec<usize>) -> usize {
        self.add_weighted_labeled(label, cost_ns, deps, 0.0, 1_000_000)
    }

    /// Add a task with an explicit memory-bound fraction and loop length.
    pub fn add_weighted(
        &mut self,
        cost_ns: f64,
        deps: Vec<usize>,
        mem_weight: f64,
        items: usize,
    ) -> usize {
        self.add_weighted_labeled("", cost_ns, deps, mem_weight, items)
    }

    /// [`TaskGraph::add_weighted`] with a phase label.
    pub fn add_weighted_labeled(
        &mut self,
        label: &'static str,
        cost_ns: f64,
        deps: Vec<usize>,
        mem_weight: f64,
        items: usize,
    ) -> usize {
        let id = self.tasks.len();
        for &d in &deps {
            assert!(d < id, "dependency {d} of task {id} not yet defined");
        }
        self.tasks.push(SimTask {
            label,
            cost_ns,
            deps,
            mem_weight,
            items,
        });
        id
    }

    /// Σ cost per phase label, in ns — the simulator-side half of the drift
    /// comparison (join with measured per-phase span totals on `label`).
    /// Zero-cost barrier nodes and unlabeled tasks are skipped.
    pub fn work_by_label(&self) -> Vec<(&'static str, f64)> {
        let mut acc: std::collections::BTreeMap<&'static str, f64> = Default::default();
        for t in &self.tasks {
            if !t.label.is_empty() && t.cost_ns > 0.0 {
                *acc.entry(t.label).or_insert(0.0) += t.cost_ns;
            }
        }
        acc.into_iter().collect()
    }

    /// Number of tasks (barrier nodes included).
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` when the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Σ cost over all tasks, in ns (the serial work).
    pub fn total_work_ns(&self) -> f64 {
        self.tasks.iter().map(|t| t.cost_ns).sum()
    }

    /// Length of the most expensive dependency chain, in ns (a lower bound
    /// on any schedule's makespan, ignoring overheads).
    pub fn critical_path_ns(&self) -> f64 {
        let mut finish = vec![0.0f64; self.tasks.len()];
        for (i, t) in self.tasks.iter().enumerate() {
            let ready = t.deps.iter().map(|&d| finish[d]).fold(0.0f64, f64::max);
            finish[i] = ready + t.cost_ns;
        }
        finish.iter().copied().fold(0.0, f64::max)
    }
}

/// Simulate the graph on the machine. Returns makespan, total productive
/// time, and executed task count.
///
/// This is [`crate::timeline::record_work_stealing`] minus the event list —
/// one event loop, one set of scheduling decisions (the
/// `recording_matches_plain_simulation_exactly` test pins the equality).
pub fn simulate_work_stealing(g: &TaskGraph, m: &MachineParams) -> SimResult {
    crate::timeline::record_work_stealing(g, m).result
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
    fn mem_weight_inflates_cost_under_contention() {
        let mut g = TaskGraph::new();
        g.add_weighted(100.0, vec![], 1.0, 1_000_000);
        let mut m = machine(4);
        m.physical_cores = 4;
        m.bw_penalty = 0.5;
        let r = simulate_work_stealing(&g, &m);
        assert_eq!(r.makespan_ns, 150.0);
        let m1 = MachineParams { threads: 1, ..m };
        let r1 = simulate_work_stealing(&g, &m1);
        assert_eq!(r1.makespan_ns, 100.0, "no contention at one thread");
    }

    #[test]
    fn independent_tasks_scale_perfectly() {
        let mut g = TaskGraph::new();
        for _ in 0..8 {
            g.add(100.0, vec![]);
        }
        let r1 = simulate_work_stealing(&g, &machine(1));
        let r8 = simulate_work_stealing(&g, &machine(8));
        assert_eq!(r1.makespan_ns, 800.0);
        assert_eq!(r8.makespan_ns, 100.0);
        assert_eq!(r8.busy_ns, 800.0);
    }

    #[test]
    fn chain_is_serial_regardless_of_cores() {
        let mut g = TaskGraph::new();
        let mut prev = None;
        for _ in 0..5 {
            let deps = prev.map(|p| vec![p]).unwrap_or_default();
            prev = Some(g.add(10.0, deps));
        }
        let r = simulate_work_stealing(&g, &machine(16));
        assert_eq!(r.makespan_ns, 50.0);
        assert_eq!(g.critical_path_ns(), 50.0);
    }

    #[test]
    fn barrier_nodes_are_free() {
        let mut g = TaskGraph::new();
        let a = g.add(100.0, vec![]);
        let b = g.add(100.0, vec![]);
        let bar = g.add(0.0, vec![a, b]);
        g.add(50.0, vec![bar]);
        let r = simulate_work_stealing(&g, &machine(2));
        assert_eq!(r.makespan_ns, 150.0);
        assert_eq!(r.tasks, 3, "barrier not counted as an executed task");
    }

    #[test]
    fn overhead_charged_per_task() {
        let mut g = TaskGraph::new();
        for _ in 0..4 {
            g.add(100.0, vec![]);
        }
        let mut m = machine(1);
        m.task_overhead_ns = 25.0;
        let r = simulate_work_stealing(&g, &m);
        assert_eq!(r.makespan_ns, 500.0);
        assert_eq!(r.busy_ns, 400.0, "overhead is not productive time");
    }

    #[test]
    fn smt_slows_individual_threads() {
        let mut g = TaskGraph::new();
        for _ in 0..8 {
            g.add(100.0, vec![]);
        }
        let m = MachineParams {
            threads: 8,
            physical_cores: 4,
            smt_yield: 1.2,
            task_overhead_ns: 0.0,
            fork_ns: 0.0,
            dynamic_dequeue_ns: 0.0,
            barrier_base_ns: 0.0,
            barrier_log_ns: 0.0,
            chunk_variance: 0.0,
            bw_penalty: 0.0,
        };
        let r = simulate_work_stealing(&g, &m);
        // 8 threads at speed 0.6 → each task takes 100/0.6.
        assert!((r.makespan_ns - 100.0 / 0.6).abs() < 1e-9);
    }

    #[test]
    fn load_imbalance_is_absorbed_by_stealing() {
        // One big task + many small: greedy puts the big one on one core
        // and balances the rest, like work stealing.
        let mut g = TaskGraph::new();
        g.add(1000.0, vec![]);
        for _ in 0..10 {
            g.add(100.0, vec![]);
        }
        let r = simulate_work_stealing(&g, &machine(2));
        assert_eq!(r.makespan_ns, 1000.0, "small tasks hide behind the big one");
    }

    proptest! {
        /// Makespan ≥ both lower bounds (critical path, work/threads), and
        /// busy time equals total work when overhead is zero.
        #[test]
        fn schedule_bounds(
            costs in proptest::collection::vec(1.0f64..1000.0, 1..60),
            threads in 1usize..16,
            chain_frac in 0usize..4,
        ) {
            let mut g = TaskGraph::new();
            for (i, &c) in costs.iter().enumerate() {
                // Mix of chains and independent tasks.
                let deps = if i > 0 && i % 4 < chain_frac { vec![i - 1] } else { vec![] };
                g.add(c, deps);
            }
            let m = machine(threads);
            let r = simulate_work_stealing(&g, &m);
            let work = g.total_work_ns();
            let cp = g.critical_path_ns();
            prop_assert!(r.makespan_ns >= cp - 1e-9);
            prop_assert!(r.makespan_ns >= work / threads as f64 - 1e-9);
            prop_assert!((r.busy_ns - work).abs() < 1e-6);
            // Greedy list scheduling is at most 2× optimal; sanity-check
            // against the classic bound makespan ≤ work/p + cp.
            prop_assert!(r.makespan_ns <= work / threads as f64 + cp + 1e-6);
            prop_assert!(r.utilization(threads) <= 1.0 + 1e-12);
        }

        /// Determinism: same graph, same result.
        #[test]
        fn deterministic(
            costs in proptest::collection::vec(1.0f64..100.0, 1..40),
            threads in 1usize..8,
        ) {
            let mut g = TaskGraph::new();
            for (i, &c) in costs.iter().enumerate() {
                let deps = if i >= 2 { vec![i - 2] } else { vec![] };
                g.add(c, deps);
            }
            let m = machine(threads);
            let a = simulate_work_stealing(&g, &m);
            let b = simulate_work_stealing(&g, &m);
            prop_assert_eq!(a.makespan_ns, b.makespan_ns);
            prop_assert_eq!(a.busy_ns, b.busy_ns);
        }

        /// More threads never increase the makespan for independent tasks.
        #[test]
        fn monotone_in_threads_for_independent(
            costs in proptest::collection::vec(1.0f64..500.0, 1..40),
        ) {
            let mut g = TaskGraph::new();
            for &c in &costs {
                g.add(c, vec![]);
            }
            let mut prev = f64::INFINITY;
            for t in [1usize, 2, 4, 8] {
                let r = simulate_work_stealing(&g, &machine(t));
                prop_assert!(r.makespan_ns <= prev + 1e-9);
                prev = r.makespan_ns;
            }
        }
    }
}
