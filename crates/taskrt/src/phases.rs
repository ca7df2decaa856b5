//! Always-on per-phase busy/task counters.
//!
//! The partition auto-tuner needs per-phase timing even when span tracing
//! is off, and it must not drain the tracer mid-run (that would steal
//! spans from the final trace export). The runtime therefore interns every
//! phase label **by content** into one small table ([`PhaseLabels`]) and
//! each worker owns a counter array indexed by that table's slots. Every
//! timed body adds its duration to its label's slot — the *same*
//! measurement that feeds the busy clock and the span, so all three views
//! agree exactly.
//!
//! Graph nodes resolve their slot once, when the graph is built; the
//! `spawn_labeled` path resolves it per task, matching `(ptr, len)` first
//! and falling back to a content compare, so neither labels that share a
//! start address nor equal labels at different addresses are confused.
//!
//! Concurrency contract: a counter array has a single writer (the owning
//! worker); readers race only against in-flight increments, which is fine
//! for a monitoring signal.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Distinct phase labels a runtime can attribute time to. LULESH uses ~15;
/// the rest is headroom. One more label is a bug in the caller (debug
/// builds assert); release builds leave its time out of the phase view.
pub(crate) const PHASE_SLOTS: usize = 32;

/// Per-NUMA-node steal counters (see [`crate::Runtime::node_steal_stats`]).
/// Kept beside [`PhaseStat`] because both are the runtime's always-on
/// monitoring surface — but steals deliberately do *not* flow through the
/// phase slots: phase busy/task totals must keep summing exactly to the
/// global busy clock, and a steal is neither busy time nor a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeStealStat {
    /// NUMA node id (0 for the synthetic domain of an unpinned runtime).
    pub node: usize,
    /// Successful steals performed by this node's workers.
    pub steals: u64,
    /// The subset of `steals` whose victim was on a different node.
    pub remote_steals: u64,
}

/// Aggregated execution statistics for one phase label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStat {
    /// The label the bodies carried.
    pub label: &'static str,
    /// Σ busy nanoseconds of this phase's bodies since the last reset.
    pub busy_ns: u64,
    /// Bodies of this phase executed since the last reset.
    pub tasks: u64,
}

/// The runtime's label table: slot `i` holds the `i`-th distinct label
/// (by content) any body was given. Append-only and lock-free.
pub(crate) struct PhaseLabels {
    labels: [OnceLock<&'static str>; PHASE_SLOTS],
}

impl PhaseLabels {
    pub(crate) fn new() -> Self {
        Self {
            labels: std::array::from_fn(|_| OnceLock::new()),
        }
    }

    /// The slot of `label`, claiming the first free one on first sight.
    /// Returns [`PHASE_SLOTS`] (which [`PhaseCounters::add`] ignores) when
    /// the table is full.
    pub(crate) fn slot(&self, label: &'static str) -> usize {
        for (i, cell) in self.labels.iter().enumerate() {
            // A racing claimant may have put a different label here; the
            // compare below then moves on to the next slot.
            let known = *cell.get_or_init(|| label);
            let same_str =
                std::ptr::eq(known.as_ptr(), label.as_ptr()) && known.len() == label.len();
            if same_str || known == label {
                return i;
            }
        }
        debug_assert!(false, "more than {PHASE_SLOTS} distinct phase labels");
        PHASE_SLOTS
    }

    /// The labels claimed so far, in slot order.
    fn claimed(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.labels.iter().map_while(|cell| cell.get().copied())
    }
}

#[derive(Default)]
struct PhaseSlot {
    busy_ns: AtomicU64,
    tasks: AtomicU64,
}

/// One worker's counters, indexed by [`PhaseLabels`] slot (single-writer,
/// many-reader).
pub(crate) struct PhaseCounters {
    slots: [PhaseSlot; PHASE_SLOTS],
}

impl PhaseCounters {
    pub(crate) fn new() -> Self {
        Self {
            slots: std::array::from_fn(|_| PhaseSlot::default()),
        }
    }

    /// Attribute `ns` of busy time (one body) to `slot`.
    pub(crate) fn add(&self, slot: usize, ns: u64) {
        if let Some(s) = self.slots.get(slot) {
            s.busy_ns.fetch_add(ns, Ordering::Relaxed);
            s.tasks.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Zero the counters.
    pub(crate) fn reset(&self) {
        for slot in &self.slots {
            slot.busy_ns.store(0, Ordering::Relaxed);
            slot.tasks.store(0, Ordering::Relaxed);
        }
    }
}

/// Sum every worker's counters per claimed label, sorted by label.
pub(crate) fn snapshot<'a>(
    labels: &PhaseLabels,
    workers: impl Iterator<Item = &'a PhaseCounters> + Clone,
) -> Vec<PhaseStat> {
    let mut out: Vec<PhaseStat> = labels
        .claimed()
        .enumerate()
        .map(|(i, label)| PhaseStat {
            label,
            busy_ns: workers
                .clone()
                .map(|w| w.slots[i].busy_ns.load(Ordering::Relaxed))
                .sum(),
            tasks: workers
                .clone()
                .map(|w| w.slots[i].tasks.load(Ordering::Relaxed))
                .sum(),
        })
        .collect();
    out.sort_by_key(|p| p.label);
    out
}
