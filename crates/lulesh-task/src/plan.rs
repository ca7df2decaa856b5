//! Partition sizes: one closed-form rule of the loop length and the
//! worker count.
//!
//! The partition size `P` is the number of elements/nodes each task
//! iterates over (paper §IV, Fig 5). The paper tuned `P` per problem size
//! for 24 cores (Table I, kept as the simulator's T7 reproduction in
//! `lulesh-bench`); the driver derives it from the loop length and the
//! worker count `T` instead:
//!
//! `P = min(cap(items, T), max(MIN_GRAIN, pow2floor(items / (TASKS_PER_WORKER · T))))`
//!
//! — about `TASKS_PER_WORKER` (16) tasks per worker per loop, never
//! under `MIN_GRAIN` (256) items per task, and never fewer tasks than
//! workers. A run uses one plan throughout.

use lulesh_core::plan::Grain;

/// Smallest partition size the task-count cap ever lowers a plan to.
/// Must stay ≥ [`MAX_LANE_WIDTH`] so even the smallest partition feeds the
/// lane-blocked kernels one full lane group.
pub const MIN_PARTITION: usize = 8;

/// Widest kernel lane width any driver activates (`lulesh_core::simd`'s
/// `LaneWidth::W8`). The partition floor is tied to it: a partition
/// narrower than the widest lane group would force every task down the
/// ragged-tail path and waste the vector units.
pub const MAX_LANE_WIDTH: usize = 8;

/// Tasks per worker per loop the rule aims for: enough for work stealing
/// to even out uneven partitions, few enough that dispatch stays small
/// next to the work.
const TASKS_PER_WORKER: usize = 16;

/// Fewest items per task the rule picks on its own (the cap may go lower,
/// to give every worker a task): at s10 on two workers, 128- and 64-item
/// tasks ran 3–16% slower than 256 (EXPERIMENTS.md "Grain from T").
const MIN_GRAIN: usize = 256;

/// Largest power of two ≤ `n` (1 for 0).
fn pow2floor(n: usize) -> usize {
    1 << (usize::BITS - 1 - n.max(1).leading_zeros())
}

/// Largest power-of-two partition size that still yields at least
/// `threads` tasks over a loop of `items`, floored at [`MIN_PARTITION`].
/// With fewer tasks than workers, some cores are guaranteed idle no matter
/// how the scheduler places work.
fn partition_cap(items: usize, threads: usize) -> usize {
    pow2floor((items / threads.max(1)).max(MIN_PARTITION))
}

/// The rule (module doc) for a loop of `items` on `threads` workers.
fn partition(items: usize, threads: usize) -> usize {
    let grain = pow2floor(items / (TASKS_PER_WORKER * threads.max(1))).max(MIN_GRAIN);
    grain.min(partition_cap(items, threads))
}

/// Partition sizes for the two leapfrog phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionPlan {
    /// Partition size for `LagrangeNodal()` (force + node-update tasks).
    pub nodal: usize,
    /// Partition size for `LagrangeElements()` (kinematics/Q/EOS tasks).
    pub elements: usize,
}

impl PartitionPlan {
    /// The plan for a `size³` mesh on `threads` workers: the rule (module
    /// doc) over `size³` items, for both phases.
    pub fn for_size_threads(size: usize, threads: usize) -> Self {
        Self::for_elems_threads(size * size * size, threads)
    }

    /// The plan for a mesh of `num_elem` elements on `threads` workers — a
    /// multi-domain rank's sub-brick: the rule (module doc) over `num_elem`
    /// items, for both phases.
    pub fn for_elems_threads(num_elem: usize, threads: usize) -> Self {
        let p = partition(num_elem, threads);
        PartitionPlan {
            nodal: p,
            elements: p,
        }
    }

    /// The partition size of a phase of `grain`.
    pub fn of(&self, grain: Grain) -> usize {
        match grain {
            Grain::Nodal => self.nodal,
            Grain::Elements => self.elements,
        }
    }

    /// An explicit plan (`--partition fixed:N`, the simulator's Table I
    /// and tests).
    pub fn fixed(nodal: usize, elements: usize) -> Self {
        assert!(nodal > 0 && elements > 0);
        PartitionPlan { nodal, elements }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_plans_at_two_workers() {
        // s6 is check.sh's partition smoke mesh (the cap binds: 216 / 2 →
        // 64); s10, s24 and s45 are the benchmark's task-driver inputs.
        for (size, p) in [(6, 64), (10, 256), (24, 256), (45, 2048)] {
            assert_eq!(
                PartitionPlan::for_size_threads(size, 2),
                PartitionPlan::fixed(p, p),
                "size {size}"
            );
        }
    }

    /// The rule's invariants for a loop of `items` on `threads` workers.
    fn assert_rule_holds(p: PartitionPlan, items: usize, threads: usize) {
        for part in [p.nodal, p.elements] {
            assert!(part.is_power_of_two(), "{items} × {threads}: {part}");
            assert!(part >= MIN_PARTITION, "{items} × {threads}: {part}");
            let tasks = items.div_ceil(part);
            assert!(
                tasks >= threads.min(items / MIN_PARTITION),
                "{items} items × {threads} threads: partition {part} gives \
                 only {tasks} tasks"
            );
        }
    }

    #[test]
    fn every_plan_is_a_power_of_two_that_feeds_every_worker() {
        for threads in [1, 2, 3, 5, 24] {
            for size in [5usize, 8, 10, 12, 24, 45, 60, 150] {
                let p = PartitionPlan::for_size_threads(size, threads);
                assert_rule_holds(p, size * size * size, threads);
            }
        }
    }

    #[test]
    fn rank_sub_bricks_follow_the_same_rule() {
        // The two ranks of a `--grid 1x1x2` split at s10 and s24.
        for (num_elem, pinned) in [(10 * 10 * 5, 128), (24 * 24 * 12, 256)] {
            for threads in [1, 2, 3, 5, 24] {
                let p = PartitionPlan::for_elems_threads(num_elem, threads);
                assert_rule_holds(p, num_elem, threads);
            }
            assert_eq!(
                PartitionPlan::for_elems_threads(num_elem, 2),
                PartitionPlan::fixed(pinned, pinned),
                "{num_elem} elements"
            );
        }
    }

    #[test]
    #[should_panic]
    fn fixed_rejects_zero() {
        let _ = PartitionPlan::fixed(0, 128);
    }

    #[test]
    fn partition_floor_covers_the_widest_lane_group() {
        const { assert!(MIN_PARTITION >= MAX_LANE_WIDTH) }
        assert_eq!(
            MAX_LANE_WIDTH,
            lulesh_core::simd::LaneWidth::W8.lanes(),
            "plan's width ceiling must track core::simd's widest mode"
        );
    }

    #[test]
    fn partition_cap_is_power_of_two_floor() {
        assert_eq!(partition_cap(512, 16), 32);
        assert_eq!(partition_cap(216, 3), 64); // 72 → 64
        assert_eq!(partition_cap(1000, 1), 512);
        // Tiny loops bottom out at MIN_PARTITION, never 0.
        assert_eq!(partition_cap(4, 8), MIN_PARTITION);
    }
}
