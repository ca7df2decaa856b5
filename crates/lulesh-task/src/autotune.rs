//! Online partition-size auto-tuning (replacing the paper's offline
//! Table I sweep).
//!
//! The paper tunes partition sizes once, offline, per problem size and
//! machine (Table I). EXPERIMENTS.md shows that table is wrong by ~4× on
//! our simulated machine — so instead of trusting any static table, this
//! module closes the loop at runtime: every `window` leapfrog iterations
//! the driver hands the tuner one [`WindowSample`] (wall time per
//! iteration plus the mean per-task busy time from the runtime's always-on
//! per-phase counters), and the tuner hill-climbs the `nodal`/`elements`
//! partition sizes over powers of two.
//!
//! The search is plain coordinate descent with hysteresis:
//!
//! 1. measure the starting (static) plan as the baseline;
//! 2. probe one neighbour at a time — double or halve one dimension —
//!    and keep a move only if it beats the best cost by more than
//!    `hysteresis`; an accepted move re-probes the same direction
//!    (momentum) before trying the others;
//! 3. converge when a whole round of probes yields no improvement (or a
//!    round/move budget runs out).
//!
//! Because the tuner starts *from* the static plan and only ever accepts
//! strict improvements, the converged plan can never be meaningfully worse
//! than `PartitionPlan::for_size` — the "never regress vs. static"
//! guarantee is structural, not empirical. Two guard rails from the task
//! inefficiency patterns literature (Schulz et al., PAPERS.md): partition
//! sizes are capped by the thread floor ([`partition_cap`]) so the pool is
//! never starved (too coarse), and finer probes are skipped when mean task
//! duration would drop below `min_task_ns` (too fine — per-task overhead
//! eats the parallelism win).
//!
//! The state machine is pure (no clocks, no runtime handles): the real
//! driver feeds it measured wall times while `lulesh_bench::autotune_sim`
//! feeds it simulator estimates, so the exact same controller is validated
//! against exhaustive search in the simulator and deployed on the real
//! runtime.

use crate::plan::{partition_cap, PartitionPlan, MIN_PARTITION};

/// The tuner's noise rejection: does `trial` beat `baseline` by a
/// relative margin greater than `threshold`? (`baseline = ∞` accepts
/// anything — the first real measurement always becomes the incumbent.)
fn clears(threshold: f64, baseline: f64, trial: f64) -> bool {
    1.0 - trial / baseline > threshold
}

/// Tuning knobs for [`AutoTuner`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoTuneConfig {
    /// Leapfrog iterations per measurement window.
    pub window: u32,
    /// Windows to discard before the baseline measurement (cache warmup,
    /// first-touch page faults).
    pub warmup_windows: u32,
    /// Minimum relative improvement for accepting a move (e.g. 0.02 =
    /// 2%). Also the noise floor: anything smaller is treated as a tie.
    pub hysteresis: f64,
    /// Upper clamp on either partition size (the thread floor may clamp
    /// lower).
    pub max_partition: usize,
    /// Skip finer probes when the current mean task duration is below
    /// twice this (halving the partition would land tasks under it).
    pub min_task_ns: f64,
    /// Accepted-move budget; exceeded ⇒ converge on the best seen.
    pub max_moves: u32,
    /// Probe-round budget; exceeded ⇒ converge on the best seen. Bounds
    /// total tuning time even under measurement noise.
    pub max_rounds: u32,
}

impl Default for AutoTuneConfig {
    fn default() -> Self {
        Self {
            window: 6,
            warmup_windows: 1,
            hysteresis: 0.02,
            max_partition: 16384,
            min_task_ns: 2_000.0,
            max_moves: 16,
            max_rounds: 8,
        }
    }
}

/// One measurement window's aggregate signal. The driver builds it from
/// wall time and the runtime's per-phase counters; the simulator builds it
/// from its cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowSample {
    /// Wall nanoseconds per leapfrog iteration over the window (the cost
    /// being minimized).
    pub wall_per_iter_ns: f64,
    /// Mean busy nanoseconds per executed task over the window (the
    /// granularity guard signal).
    pub mean_task_ns: f64,
}

/// Final summary of a tuning run, for logs and EXPERIMENTS.md.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoTuneReport {
    /// The static plan the search started from.
    pub initial: PartitionPlan,
    /// Best plan found (== `initial` if nothing beat it).
    pub best: PartitionPlan,
    /// Baseline cost of the initial plan (ns per iteration).
    pub initial_cost_ns: f64,
    /// Cost of the best plan (ns per iteration).
    pub best_cost_ns: f64,
    /// Measurement windows consumed (including warmup).
    pub windows: u32,
    /// Accepted moves.
    pub moves: u32,
    /// Whether the search finished (vs. the run ending mid-probe).
    pub converged: bool,
    /// Every `(plan, cost)` measured, in order.
    pub history: Vec<(PartitionPlan, f64)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dim {
    Nodal,
    Elements,
}

/// +1 ⇒ coarser (double), −1 ⇒ finer (halve).
type Dir = i8;

#[derive(Debug, Clone, Copy, PartialEq)]
enum State {
    Warmup(u32),
    Baseline,
    Probe(Dim, Dir),
    Converged,
}

/// The online partition-size controller. Drive it with
/// [`plan`](Self::plan) → run a window → [`record_window`](Self::record_window),
/// until [`converged`](Self::converged).
#[derive(Debug)]
pub struct AutoTuner {
    cfg: AutoTuneConfig,
    /// Thread-floor cap on either partition size (see [`partition_cap`]).
    cap: usize,
    state: State,
    /// Plan currently being measured.
    trial: PartitionPlan,
    /// Best plan accepted so far and its cost/granularity signal.
    best: PartitionPlan,
    best_cost: f64,
    best_task_ns: f64,
    initial: PartitionPlan,
    initial_cost: f64,
    /// Probes left in the current round.
    pending: Vec<(Dim, Dir)>,
    improved_this_round: bool,
    rounds: u32,
    moves: u32,
    windows: u32,
    history: Vec<(PartitionPlan, f64)>,
}

fn pow2_clamp(v: usize, lo: usize, hi: usize) -> usize {
    v.next_power_of_two().clamp(lo, hi)
}

impl AutoTuner {
    /// A tuner for a loop of `num_elem` elements on `threads` workers,
    /// starting from `start` (normally the static plan). The start plan is
    /// rounded to powers of two inside the tuner's bounds.
    pub fn new(start: PartitionPlan, threads: usize, num_elem: usize, cfg: AutoTuneConfig) -> Self {
        assert!(cfg.window >= 1, "window must be at least one iteration");
        let cap = partition_cap(num_elem, threads).min(cfg.max_partition);
        let start = PartitionPlan {
            nodal: pow2_clamp(start.nodal, MIN_PARTITION, cap),
            elements: pow2_clamp(start.elements, MIN_PARTITION, cap),
        };
        Self {
            cfg,
            cap,
            state: if cfg.warmup_windows > 0 {
                State::Warmup(cfg.warmup_windows)
            } else {
                State::Baseline
            },
            trial: start,
            best: start,
            best_cost: f64::INFINITY,
            best_task_ns: f64::INFINITY,
            initial: start,
            initial_cost: f64::INFINITY,
            pending: Vec::new(),
            improved_this_round: false,
            rounds: 0,
            moves: 0,
            windows: 0,
            history: Vec::new(),
        }
    }

    /// The configuration this tuner runs with.
    pub fn config(&self) -> &AutoTuneConfig {
        &self.cfg
    }

    /// The plan the driver should use for the next window.
    pub fn plan(&self) -> PartitionPlan {
        self.trial
    }

    /// `true` once the search has settled; [`plan`](Self::plan) then
    /// returns the best plan permanently.
    pub fn converged(&self) -> bool {
        self.state == State::Converged
    }

    /// Best plan seen so far.
    pub fn best(&self) -> PartitionPlan {
        self.best
    }

    /// Feed one window's measurement of the current [`plan`](Self::plan).
    pub fn record_window(&mut self, sample: WindowSample) {
        self.windows += 1;
        match self.state {
            State::Converged => {}
            State::Warmup(left) => {
                self.state = if left > 1 {
                    State::Warmup(left - 1)
                } else {
                    State::Baseline
                };
            }
            State::Baseline => {
                self.history.push((self.trial, sample.wall_per_iter_ns));
                self.best_cost = sample.wall_per_iter_ns;
                self.best_task_ns = sample.mean_task_ns;
                self.initial_cost = sample.wall_per_iter_ns;
                self.start_round();
                self.advance();
            }
            State::Probe(dim, dir) => {
                self.history.push((self.trial, sample.wall_per_iter_ns));
                if clears(self.cfg.hysteresis, self.best_cost, sample.wall_per_iter_ns) {
                    self.best = self.trial;
                    self.best_cost = sample.wall_per_iter_ns;
                    self.best_task_ns = sample.mean_task_ns;
                    self.moves += 1;
                    self.improved_this_round = true;
                    // Momentum: keep pushing the direction that just paid
                    // off before returning to the round's other probes.
                    self.pending.push((dim, dir));
                }
                self.advance();
            }
        }
    }

    /// Summary of the search so far.
    pub fn report(&self) -> AutoTuneReport {
        AutoTuneReport {
            initial: self.initial,
            best: self.best,
            initial_cost_ns: self.initial_cost,
            best_cost_ns: self.best_cost,
            windows: self.windows,
            moves: self.moves,
            converged: self.converged(),
            history: self.history.clone(),
        }
    }

    /// Queue a fresh probe round: both directions of every dimension,
    /// popped back-to-front.
    fn start_round(&mut self) {
        self.rounds += 1;
        self.improved_this_round = false;
        self.pending = vec![
            (Dim::Elements, -1),
            (Dim::Elements, 1),
            (Dim::Nodal, -1),
            (Dim::Nodal, 1),
        ];
    }

    /// Move to the next viable probe, starting new rounds as long as the
    /// last one improved, otherwise converge on the best plan.
    fn advance(&mut self) {
        loop {
            if self.moves >= self.cfg.max_moves {
                return self.settle();
            }
            while let Some((dim, dir)) = self.pending.pop() {
                if let Some(candidate) = self.step(dim, dir) {
                    self.trial = candidate;
                    self.state = State::Probe(dim, dir);
                    return;
                }
            }
            if !self.improved_this_round || self.rounds >= self.cfg.max_rounds {
                return self.settle();
            }
            self.start_round();
        }
    }

    fn settle(&mut self) {
        self.trial = self.best;
        self.state = State::Converged;
    }

    /// The neighbour of `best` one power-of-two step along `dim`, or
    /// `None` when the step leaves the bounds or trips the granularity
    /// guard.
    fn step(&self, dim: Dim, dir: Dir) -> Option<PartitionPlan> {
        let mut plan = self.best;
        let cur = match dim {
            Dim::Nodal => plan.nodal,
            Dim::Elements => plan.elements,
        };
        let next = if dir > 0 {
            if cur >= self.cap {
                return None;
            }
            cur * 2
        } else {
            if cur <= MIN_PARTITION {
                return None;
            }
            // Too-fine guard: halving the partition roughly halves the
            // mean task duration; refuse to probe below the overhead
            // floor.
            if self.best_task_ns < 2.0 * self.cfg.min_task_ns {
                return None;
            }
            cur / 2
        };
        match dim {
            Dim::Nodal => plan.nodal = next,
            Dim::Elements => plan.elements = next,
        }
        Some(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive the tuner against a synthetic cost function until it
    /// converges; returns (best plan, windows used).
    fn run_to_convergence(
        mut tuner: AutoTuner,
        cost: impl Fn(PartitionPlan) -> f64,
        task_ns: impl Fn(PartitionPlan) -> f64,
        max_windows: u32,
    ) -> (PartitionPlan, u32) {
        let mut windows = 0;
        while !tuner.converged() && windows < max_windows {
            let p = tuner.plan();
            tuner.record_window(WindowSample {
                wall_per_iter_ns: cost(p),
                mean_task_ns: task_ns(p),
            });
            windows += 1;
        }
        assert!(tuner.converged(), "tuner failed to converge");
        (tuner.best(), windows)
    }

    /// V-shaped (in log space) cost with the optimum at (512, 256).
    fn v_cost(p: PartitionPlan) -> f64 {
        let d = |v: usize, opt: f64| ((v as f64).log2() - opt).abs();
        1_000_000.0 * (1.0 + d(p.nodal, 9.0) + d(p.elements, 8.0))
    }

    fn coarse_tasks(p: PartitionPlan) -> f64 {
        // Mean task duration proportional to partition size, comfortably
        // above the granularity floor everywhere.
        50.0 * (p.nodal + p.elements) as f64
    }

    fn cfg() -> AutoTuneConfig {
        AutoTuneConfig {
            warmup_windows: 0,
            hysteresis: 0.01,
            ..AutoTuneConfig::default()
        }
    }

    #[test]
    fn descends_to_the_optimum_of_a_convex_landscape() {
        let start = PartitionPlan::fixed(8192, 8192);
        let tuner = AutoTuner::new(start, 4, 1 << 20, cfg());
        let (best, _) = run_to_convergence(tuner, v_cost, coarse_tasks, 200);
        assert_eq!(best, PartitionPlan::fixed(512, 256));
    }

    #[test]
    fn climbs_as_well_as_descends() {
        let start = PartitionPlan::fixed(16, 16);
        let tuner = AutoTuner::new(start, 4, 1 << 20, cfg());
        let (best, _) = run_to_convergence(tuner, v_cost, coarse_tasks, 200);
        assert_eq!(best, PartitionPlan::fixed(512, 256));
    }

    #[test]
    fn never_settles_on_a_plan_worse_than_the_start() {
        // Adversarial landscape: every neighbour of the start is worse.
        // The tuner must hand back the start plan itself.
        let start = PartitionPlan::fixed(1024, 1024);
        let cost = |p: PartitionPlan| {
            if p == PartitionPlan::fixed(1024, 1024) {
                1_000_000.0
            } else {
                2_000_000.0
            }
        };
        let tuner = AutoTuner::new(start, 4, 1 << 20, cfg());
        let (best, _) = run_to_convergence(tuner, cost, coarse_tasks, 200);
        assert_eq!(best, start);
    }

    #[test]
    fn respects_the_thread_floor_cap() {
        // 4096 elements on 16 threads ⇒ cap 256; even with a cost that
        // rewards coarsening forever, the tuner must stop at the cap.
        let start = PartitionPlan::fixed(64, 64);
        let cost = |p: PartitionPlan| 1e9 / (p.nodal + p.elements) as f64;
        let tuner = AutoTuner::new(start, 16, 4096, cfg());
        let (best, _) = run_to_convergence(tuner, cost, coarse_tasks, 200);
        assert_eq!(best, PartitionPlan::fixed(256, 256));
    }

    #[test]
    fn granularity_guard_blocks_probing_into_overhead_dominated_sizes() {
        // Tasks are already tiny (1 µs < 2 × min_task_ns): even though the
        // cost function rewards finer partitions, the tuner must refuse to
        // probe finer at all.
        let start = PartitionPlan::fixed(1024, 1024);
        let cost = |p: PartitionPlan| (p.nodal + p.elements) as f64;
        let tiny_tasks = |_: PartitionPlan| 1_000.0;
        let tuner = AutoTuner::new(start, 4, 1 << 20, cfg());
        let (best, _) = run_to_convergence(tuner, cost, tiny_tasks, 200);
        assert_eq!(best, start, "finer probes must be vetoed by the guard");
    }

    #[test]
    fn converges_within_the_window_budget_even_with_noise() {
        // Hostile signal: cost "improves" on every single probe, so the
        // search never naturally runs dry. The round/move budgets must
        // still force convergence within the deterministic worst case.
        let start = PartitionPlan::fixed(512, 512);
        let c = cfg();
        let worst_case = c.warmup_windows + 1 + 4 * c.max_rounds + c.max_moves;
        let tuner = AutoTuner::new(start, 2, 1 << 20, c);
        let mut cost = 1e9;
        let mut windows = 0;
        let mut tuner = tuner;
        while !tuner.converged() {
            assert!(windows <= worst_case, "exceeded worst-case window budget");
            cost *= 0.9;
            tuner.record_window(WindowSample {
                wall_per_iter_ns: cost,
                mean_task_ns: 1e6,
            });
            windows += 1;
        }
    }

    #[test]
    fn report_tracks_the_search() {
        let start = PartitionPlan::fixed(8192, 8192);
        let mut tuner = AutoTuner::new(start, 4, 1 << 20, cfg());
        while !tuner.converged() {
            let p = tuner.plan();
            tuner.record_window(WindowSample {
                wall_per_iter_ns: v_cost(p),
                mean_task_ns: coarse_tasks(p),
            });
        }
        let r = tuner.report();
        assert!(r.converged);
        assert_eq!(r.best, PartitionPlan::fixed(512, 256));
        assert!(r.best_cost_ns <= r.initial_cost_ns);
        assert!(r.moves >= 2, "descent from 8192² needs several moves");
        assert_eq!(r.windows as usize, r.history.len());
        // History costs of the best plan must match the reported best.
        let min_seen = r
            .history
            .iter()
            .map(|(_, c)| *c)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(min_seen, r.best_cost_ns);
    }

    #[test]
    fn warmup_windows_are_discarded() {
        let start = PartitionPlan::fixed(512, 512);
        let mut tuner = AutoTuner::new(
            start,
            4,
            1 << 20,
            AutoTuneConfig {
                warmup_windows: 2,
                ..cfg()
            },
        );
        // Garbage warmup samples must not become the baseline.
        for _ in 0..2 {
            tuner.record_window(WindowSample {
                wall_per_iter_ns: 1.0, // absurdly fast; would poison the baseline
                mean_task_ns: 1e6,
            });
        }
        assert_eq!(tuner.plan(), start, "still measuring the start plan");
        tuner.record_window(WindowSample {
            wall_per_iter_ns: 1e6,
            mean_task_ns: 1e6,
        });
        let r = tuner.report();
        assert_eq!(r.initial_cost_ns, 1e6, "baseline comes after warmup");
    }
}
