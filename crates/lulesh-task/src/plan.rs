//! Partition sizes (the paper's Table I plus a thread-count floor).
//!
//! The partition size `P` is the number of elements/nodes each task
//! iterates over (paper §IV, Fig 5). Table I records the sizes the authors
//! found best per problem size; `PartitionPlan::for_size` reproduces that
//! table and falls back to a bounded heuristic for sizes the paper did not
//! evaluate (e.g. the small meshes used in tests). A run uses one plan
//! throughout.

use lulesh_core::plan::Grain;

/// Smallest partition size the thread-count floor of
/// [`PartitionPlan::for_size_threads`] caps down to. Below this the
/// per-task overhead dwarfs the kernel work on any machine we model. Must
/// stay ≥ [`MAX_LANE_WIDTH`] so even the smallest partition feeds the
/// lane-blocked kernels one full lane group.
pub const MIN_PARTITION: usize = 8;

/// Widest kernel lane width any driver activates (`lulesh_core::simd`'s
/// `LaneWidth::W8`). The partition floor is tied to it: a partition
/// narrower than the widest lane group would force every task down the
/// ragged-tail path and waste the vector units.
pub const MAX_LANE_WIDTH: usize = 8;

/// Largest power-of-two partition size that still yields at least
/// `threads` tasks over a loop of `items`, floored at [`MIN_PARTITION`]:
/// the task-count floor of [`PartitionPlan::for_size_threads`]. With fewer
/// tasks than workers, some cores are guaranteed idle no matter how the
/// scheduler places work.
fn partition_cap(items: usize, threads: usize) -> usize {
    let per = (items / threads.max(1)).max(MIN_PARTITION);
    // Largest power of two ≤ per.
    1 << (usize::BITS - 1 - per.leading_zeros())
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
    /// Fixed sizes (Table I of the paper).
    pub const TABLE_I: [(usize, PartitionPlan); 6] = [
        (
            45,
            PartitionPlan {
                nodal: 2048,
                elements: 2048,
            },
        ),
        (
            60,
            PartitionPlan {
                nodal: 4096,
                elements: 2048,
            },
        ),
        (
            75,
            PartitionPlan {
                nodal: 8192,
                elements: 4096,
            },
        ),
        (
            90,
            PartitionPlan {
                nodal: 8192,
                elements: 4096,
            },
        ),
        (
            120,
            PartitionPlan {
                nodal: 8192,
                elements: 2048,
            },
        ),
        (
            150,
            PartitionPlan {
                nodal: 8192,
                elements: 2048,
            },
        ),
    ];

    /// The plan for a given problem size: Table I when listed, otherwise a
    /// heuristic that keeps roughly 32–128 tasks per loop, clamped to
    /// [64, 8192]. Thread-count blind — prefer
    /// [`for_size_threads`](Self::for_size_threads) when the worker count
    /// is known.
    pub fn for_size(size: usize) -> Self {
        for (s, plan) in Self::TABLE_I {
            if s == size {
                return plan;
            }
        }
        Self::heuristic(size * size * size)
    }

    /// The off-table heuristic for a mesh of `num_elem` elements.
    fn heuristic(num_elem: usize) -> Self {
        let p = (num_elem / 64).next_power_of_two().clamp(64, 8192);
        PartitionPlan {
            nodal: p,
            elements: p,
        }
    }

    /// [`for_size`](Self::for_size) with the task count floored at the
    /// runtime's thread count: each partition size is capped at the largest
    /// power of two that still gives every worker a task (floored at
    /// [`MIN_PARTITION`]), so a small mesh on a wide pool still produces at
    /// least one task per worker. At the paper's 24 threads the cap leaves
    /// every Table I entry unchanged.
    pub fn for_size_threads(size: usize, threads: usize) -> Self {
        Self::for_size(size).capped(size * size * size, threads)
    }

    /// The plan for a mesh that is not a Table I cube — a multi-domain
    /// rank's sub-brick of `num_elem` elements: the off-table heuristic,
    /// with the same thread-count floor as
    /// [`for_size_threads`](Self::for_size_threads).
    pub fn for_elems_threads(num_elem: usize, threads: usize) -> Self {
        Self::heuristic(num_elem).capped(num_elem, threads)
    }

    fn capped(self, num_elem: usize, threads: usize) -> Self {
        let cap = partition_cap(num_elem, threads);
        PartitionPlan {
            nodal: self.nodal.min(cap),
            elements: self.elements.min(cap),
        }
    }

    /// The partition size of a phase of `grain`.
    pub fn of(&self, grain: Grain) -> usize {
        match grain {
            Grain::Nodal => self.nodal,
            Grain::Elements => self.elements,
        }
    }

    /// An explicit plan (used by the Table-I sweep bench and tests).
    pub fn fixed(nodal: usize, elements: usize) -> Self {
        assert!(nodal > 0 && elements > 0);
        PartitionPlan { nodal, elements }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_values() {
        assert_eq!(
            PartitionPlan::for_size(45),
            PartitionPlan {
                nodal: 2048,
                elements: 2048
            }
        );
        assert_eq!(
            PartitionPlan::for_size(60),
            PartitionPlan {
                nodal: 4096,
                elements: 2048
            }
        );
        assert_eq!(
            PartitionPlan::for_size(75),
            PartitionPlan {
                nodal: 8192,
                elements: 4096
            }
        );
        assert_eq!(
            PartitionPlan::for_size(90),
            PartitionPlan {
                nodal: 8192,
                elements: 4096
            }
        );
        assert_eq!(
            PartitionPlan::for_size(120),
            PartitionPlan {
                nodal: 8192,
                elements: 2048
            }
        );
        assert_eq!(
            PartitionPlan::for_size(150),
            PartitionPlan {
                nodal: 8192,
                elements: 2048
            }
        );
    }

    #[test]
    fn heuristic_for_unlisted_sizes() {
        let p = PartitionPlan::for_size(8); // 512 elements
        assert!(p.nodal >= 64 && p.nodal <= 8192);
        let big = PartitionPlan::for_size(200); // 8M elements
        assert_eq!(big.nodal, 8192, "clamped at the Table I maximum");
    }

    #[test]
    fn heuristic_gives_multiple_tasks_for_moderate_meshes() {
        // A 20³ mesh (8000 elements) should split into several tasks.
        let p = PartitionPlan::for_size(20);
        assert!(
            8000 / p.elements >= 2,
            "partition {} too coarse",
            p.elements
        );
    }

    #[test]
    #[should_panic]
    fn fixed_rejects_zero() {
        let _ = PartitionPlan::fixed(0, 128);
    }

    #[test]
    fn thread_floor_guarantees_a_task_per_worker() {
        // Regression: `for_size` is thread-count blind — an 8³ mesh (512
        // elements) got partition 64, i.e. 8 tasks, starving a 16-wide
        // pool. The thread-aware variant must cap the partition size so
        // every worker gets at least one task.
        for threads in [1, 2, 4, 8, 16, 32] {
            for size in [5usize, 8, 12, 20, 45] {
                let num_elem = size * size * size;
                let p = PartitionPlan::for_size_threads(size, threads);
                let tasks = num_elem.div_ceil(p.elements);
                assert!(
                    tasks >= threads.min(num_elem / MIN_PARTITION).max(1),
                    "size {size} × {threads} threads: partition {} gives \
                     only {tasks} tasks",
                    p.elements
                );
                assert!(p.nodal >= MIN_PARTITION && p.elements >= MIN_PARTITION);
            }
        }
    }

    #[test]
    fn thread_floor_leaves_table_i_unchanged_at_paper_width() {
        for (size, plan) in PartitionPlan::TABLE_I {
            assert_eq!(
                PartitionPlan::for_size_threads(size, 24),
                plan,
                "24-thread cap must not disturb Table I for size {size}"
            );
        }
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
