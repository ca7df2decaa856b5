//! Partition arithmetic.
//!
//! Two partitioning schemes appear in the paper:
//!
//! * **Fixed-size partitions** (the HPX port, paper §IV): a loop over
//!   `0..n` becomes `ceil(n / p)` tasks of at most `p` iterations each,
//!   with `p` the tunable partition size of Table I.
//! * **Static thread split** (the OpenMP reference): `0..n` is split into
//!   `t` contiguous chunks, one per thread, sizes differing by at most one —
//!   the schedule `libgomp` uses for `schedule(static)`.

/// A contiguous index range `[begin, end)` produced by a partitioner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    /// First index (inclusive).
    pub begin: usize,
    /// One past the last index.
    pub end: usize,
}

impl Chunk {
    /// Number of indices covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.begin
    }

    /// `true` when the chunk covers no indices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.begin == self.end
    }

    /// Iterate over the covered indices.
    #[inline]
    pub fn iter(&self) -> std::ops::Range<usize> {
        self.begin..self.end
    }
}

/// Number of fixed-size chunks needed to cover `n` items with chunk size
/// `size` (the task count of the paper's manual partitioning).
#[inline]
pub fn chunk_count(n: usize, size: usize) -> usize {
    assert!(size > 0, "chunk size must be positive");
    n.div_ceil(size)
}

/// The `k`-th fixed-size chunk of `0..n` with chunk size `size`.
#[inline]
pub fn chunk_range(n: usize, size: usize, k: usize) -> Chunk {
    let begin = k * size;
    let end = (begin + size).min(n);
    assert!(
        begin <= n,
        "chunk index {k} out of range for n={n}, size={size}"
    );
    Chunk { begin, end }
}

/// Iterator over all fixed-size chunks of `0..n`.
pub fn chunks_of(n: usize, size: usize) -> impl Iterator<Item = Chunk> {
    (0..chunk_count(n, size)).map(move |k| chunk_range(n, size, k))
}

/// Iterator over the fixed-size chunks of an arbitrary range `r`: the
/// chunks of `0..r.len()`, shifted to start at `r.start`.
pub fn chunks_in(r: std::ops::Range<usize>, size: usize) -> impl Iterator<Item = Chunk> {
    chunks_of(r.len(), size).map(move |c| Chunk {
        begin: c.begin + r.start,
        end: c.end + r.start,
    })
}

/// The contiguous range thread `t` of `nthreads` owns under a static split
/// of `0..n` (sizes differ by at most one; low-numbered threads get the
/// remainder, matching `libgomp`'s `schedule(static)`).
#[inline]
pub fn static_split(n: usize, nthreads: usize, t: usize) -> Chunk {
    assert!(nthreads > 0 && t < nthreads);
    let base = n / nthreads;
    let rem = n % nthreads;
    let begin = t * base + t.min(rem);
    let len = base + usize::from(t < rem);
    Chunk {
        begin,
        end: begin + len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn chunk_count_examples() {
        assert_eq!(chunk_count(0, 4), 0);
        assert_eq!(chunk_count(1, 4), 1);
        assert_eq!(chunk_count(4, 4), 1);
        assert_eq!(chunk_count(5, 4), 2);
        assert_eq!(chunk_count(8192, 2048), 4);
    }

    #[test]
    fn chunk_range_last_is_short() {
        let c = chunk_range(10, 4, 2);
        assert_eq!(c, Chunk { begin: 8, end: 10 });
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn chunks_in_tiles_a_shifted_range() {
        let got: Vec<_> = chunks_in(5..15, 4).map(|c| (c.begin, c.end)).collect();
        assert_eq!(got, [(5, 9), (9, 13), (13, 15)]);
        assert_eq!(chunks_in(7..7, 4).count(), 0);
    }

    #[test]
    fn static_split_even_and_remainder() {
        // 10 items over 3 threads: 4, 3, 3.
        assert_eq!(static_split(10, 3, 0), Chunk { begin: 0, end: 4 });
        assert_eq!(static_split(10, 3, 1), Chunk { begin: 4, end: 7 });
        assert_eq!(static_split(10, 3, 2), Chunk { begin: 7, end: 10 });
    }

    #[test]
    fn static_split_more_threads_than_items() {
        let owned: Vec<_> = (0..8).map(|t| static_split(3, 8, t)).collect();
        let total: usize = owned.iter().map(|c| c.len()).sum();
        assert_eq!(total, 3);
        assert!(owned[3].is_empty());
    }

    proptest! {
        /// Fixed-size chunks tile 0..n exactly once, in order.
        #[test]
        fn chunks_tile_exactly(n in 0usize..10_000, size in 1usize..4096) {
            let mut next = 0;
            for c in chunks_of(n, size) {
                prop_assert_eq!(c.begin, next);
                prop_assert!(c.len() <= size);
                prop_assert!(!c.is_empty());
                next = c.end;
            }
            prop_assert_eq!(next, n);
        }

        /// Static split tiles 0..n exactly once with near-equal sizes.
        #[test]
        fn static_split_tiles_exactly(n in 0usize..10_000, t in 1usize..64) {
            let mut next = 0;
            let mut min = usize::MAX;
            let mut max = 0;
            for i in 0..t {
                let c = static_split(n, t, i);
                prop_assert_eq!(c.begin, next);
                next = c.end;
                min = min.min(c.len());
                max = max.max(c.len());
            }
            prop_assert_eq!(next, n);
            prop_assert!(max - min <= 1);
        }

        /// chunk_count agrees with the number of yielded chunks.
        #[test]
        fn chunk_count_consistent(n in 0usize..10_000, size in 1usize..4096) {
            prop_assert_eq!(chunks_of(n, size).count(), chunk_count(n, size));
        }
    }
}
