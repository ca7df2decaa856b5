//! Busy/idle time accounting.
//!
//! The paper's Figure 11 compares the *productive-time ratio* — the fraction
//! of total worker-thread time spent executing kernel code rather than
//! idling or doing runtime management — between HPX (via its idle-rate
//! performance counter) and OpenMP (via manual per-region timing). Both of
//! our runtimes account time through [`BusyIdleClock`], one per worker,
//! cache-line padded to avoid false sharing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Slack both runtimes allow on the raw productive-time ratio before their
/// debug assertion fires: the wall clock and the per-worker busy clocks
/// are read at slightly different instants, so tiny overshoots are
/// measurement skew, not overcounting.
pub const UTILIZATION_EPS: f64 = 0.05;

/// Pad-and-align wrapper keeping each worker's counters on its own cache
/// line(s).
#[derive(Debug, Default)]
#[repr(align(128))]
pub struct CachePadded<T>(pub T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T> std::ops::DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

/// Accumulates nanoseconds of "busy" (productive kernel execution) and
/// bookkeeping counts for one worker thread.
#[derive(Debug, Default)]
pub struct BusyIdleClock {
    busy_ns: AtomicU64,
    tasks: AtomicU64,
    steals: AtomicU64,
}

impl BusyIdleClock {
    /// New clock with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `f`, attributing its wall time to busy time and counting one task.
    #[inline]
    pub fn run_busy<R>(&self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let r = f();
        self.busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.tasks.fetch_add(1, Ordering::Relaxed);
        r
    }

    /// Directly add busy nanoseconds (used when the caller already timed).
    #[inline]
    pub fn add_busy_ns(&self, ns: u64) {
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Count one executed task without touching the busy clock (used with
    /// [`add_busy_ns`](Self::add_busy_ns) when the caller times the task
    /// body itself, e.g. to share one measurement with a trace span).
    #[inline]
    pub fn count_task(&self) {
        self.tasks.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one successful steal.
    #[inline]
    pub fn count_steal(&self) {
        self.steals.fetch_add(1, Ordering::Relaxed);
    }

    /// Total busy nanoseconds so far.
    pub fn busy_ns(&self) -> u64 {
        self.busy_ns.load(Ordering::Relaxed)
    }

    /// Tasks executed so far.
    pub fn tasks(&self) -> u64 {
        self.tasks.load(Ordering::Relaxed)
    }

    /// Successful steals so far.
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        self.busy_ns.store(0, Ordering::Relaxed);
        self.tasks.store(0, Ordering::Relaxed);
        self.steals.store(0, Ordering::Relaxed);
    }
}

/// Aggregate utilization snapshot across a set of workers, the quantity
/// plotted in Figure 11.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Utilization {
    /// Sum of per-worker busy nanoseconds.
    pub busy_ns: u64,
    /// Workers × wall nanoseconds of the measured interval.
    pub total_ns: u64,
    /// Total tasks executed.
    pub tasks: u64,
    /// Total successful steals.
    pub steals: u64,
}

impl Utilization {
    /// Productive-time ratio in `[0, 1]` (clamped: timer jitter can push the
    /// raw ratio epsilon above 1 on oversubscribed hosts).
    pub fn productive_ratio(&self) -> f64 {
        if self.total_ns == 0 {
            return 0.0;
        }
        (self.busy_ns as f64 / self.total_ns as f64).min(1.0)
    }
}

/// Sum worker clocks over a measured wall-clock interval.
pub fn aggregate(clocks: &[CachePadded<BusyIdleClock>], wall_ns: u64) -> Utilization {
    Utilization {
        busy_ns: clocks.iter().map(|c| c.busy_ns()).sum(),
        total_ns: wall_ns.saturating_mul(clocks.len() as u64),
        tasks: clocks.iter().map(|c| c.tasks()).sum(),
        steals: clocks.iter().map(|c| c.steals()).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_busy_accumulates() {
        let c = BusyIdleClock::new();
        let out = c.run_busy(|| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7
        });
        assert_eq!(out, 7);
        assert!(c.busy_ns() >= 1_000_000);
        assert_eq!(c.tasks(), 1);
    }

    #[test]
    fn reset_zeroes_everything() {
        let c = BusyIdleClock::new();
        c.add_busy_ns(100);
        c.count_steal();
        assert_eq!(c.steals(), 1);
        c.reset();
        assert_eq!(c.busy_ns(), 0);
        assert_eq!(c.tasks(), 0);
        assert_eq!(c.steals(), 0);
    }

    #[test]
    fn aggregate_and_ratio() {
        let clocks: Vec<CachePadded<BusyIdleClock>> =
            (0..4).map(|_| CachePadded(BusyIdleClock::new())).collect();
        for c in &clocks {
            c.add_busy_ns(500);
        }
        let u = aggregate(&clocks, 1000);
        assert_eq!(u.busy_ns, 2000);
        assert_eq!(u.total_ns, 4000);
        assert!((u.productive_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ratio_clamps_to_one_and_handles_zero() {
        let u = Utilization {
            busy_ns: 10,
            total_ns: 5,
            tasks: 0,
            steals: 0,
        };
        assert_eq!(u.productive_ratio(), 1.0);
        let z = Utilization {
            busy_ns: 0,
            total_ns: 0,
            tasks: 0,
            steals: 0,
        };
        assert_eq!(z.productive_ratio(), 0.0);
    }

    #[test]
    fn cache_padded_alignment() {
        assert!(std::mem::align_of::<CachePadded<BusyIdleClock>>() >= 128);
    }
}
