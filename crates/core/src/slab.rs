//! Scratch slabs: the whole-mesh arrays a step writes and rereads, laid out
//! as planes of one zeroed [`SharedVec`] block.
//!
//! At the paper's sizes a slab spans tens of MB, past
//! [`parutil::HUGE_PAGE`], so the block is one huge-page mapping: the
//! first iteration's writes fault once per 2 MiB instead of once per 4 KiB
//! page, and only the block's last partial huge page is left on small
//! pages — not one tail per array.

use crate::types::Real;
use parutil::{Chunk, SharedVec, CACHE_LINE};

/// `Real`s per cache line: planes start at multiples of it.
const LINE: usize = CACHE_LINE / std::mem::size_of::<Real>();

/// One array of a slab: `len` values from offset `off` of the block, which
/// is a multiple of a cache line, so a non-empty plane starts 64-byte
/// aligned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Plane {
    pub off: usize,
    pub len: usize,
}

impl Plane {
    /// The whole plane, as a chunk of its own index space.
    pub fn all(self) -> Chunk {
        Chunk {
            begin: 0,
            end: self.len,
        }
    }
}

/// Lays planes out back to back, each from the next line boundary.
#[derive(Default)]
pub(crate) struct Layout {
    end: usize,
}

impl Layout {
    /// The next plane, `len` values long (`0` for an array a plan does not
    /// use: it takes no space).
    pub fn plane(&mut self, len: usize) -> Plane {
        let p = Plane { off: self.end, len };
        self.end += len.next_multiple_of(LINE);
        p
    }

    /// The block every plane laid out so far lives in, as untouched zero
    /// pages ([`SharedVec::zeroed`]).
    pub fn block(&self) -> SharedVec<Real> {
        SharedVec::zeroed(self.end)
    }
}

/// The `planes` of `block`, given in layout order, as disjoint mutable
/// slices.
pub(crate) fn split_mut<const N: usize>(
    block: &mut [Real],
    planes: [Plane; N],
) -> [&mut [Real]; N] {
    let (mut rest, mut at) = (block, 0);
    planes.map(|p| {
        let (_, from) = std::mem::take(&mut rest).split_at_mut(p.off - at);
        let (plane, after) = from.split_at_mut(p.len);
        (rest, at) = (after, p.off + p.len);
        plane
    })
}

/// Page-fault probes for the tests that check a block faults once per huge
/// page.
#[cfg(all(test, target_os = "linux", target_arch = "x86_64", not(miri)))]
pub(crate) mod faults {
    /// This thread's minor page faults so far (`getrusage(RUSAGE_THREAD)`).
    pub fn minor_faults() -> i64 {
        /// `struct rusage` of x86-64 Linux: two `timeval`s, then 14 longs.
        #[repr(C)]
        struct Rusage {
            times: [i64; 4],
            maxrss_ixrss_idrss_isrss: [i64; 4],
            minflt: i64,
            rest: [i64; 9],
        }
        extern "C" {
            fn getrusage(who: i32, usage: *mut Rusage) -> i32;
        }
        const RUSAGE_THREAD: i32 = 1;
        let mut u = std::mem::MaybeUninit::<Rusage>::zeroed();
        // SAFETY: `u` is a writable `struct rusage`; the call fills it.
        assert_eq!(unsafe { getrusage(RUSAGE_THREAD, u.as_mut_ptr()) }, 0);
        // SAFETY: zeroed, then filled by the kernel: every field is an
        // integer.
        unsafe { u.assume_init() }.minflt
    }

    /// Whether transparent huge pages are off (or unknown) on this host,
    /// where a huge block faults per 4 KiB page and the tests skip.
    pub fn thp_off() -> bool {
        let thp = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled");
        thp.as_deref().map_or(true, |t| t.contains("[never]"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn planes_are_line_aligned_and_disjoint() {
        let mut layout = Layout::default();
        let planes = [3, 0, 16, 9].map(|n| layout.plane(n));
        assert_eq!(planes.map(|p| p.off), [0, 8, 8, 24]);
        let mut block = layout.block();
        assert_eq!(block.len(), 40);
        let [a, b, c, d] = split_mut(block.as_mut_slice(), planes);
        assert_eq!([a.len(), b.len(), c.len(), d.len()], [3, 0, 16, 9]);
        for (v, x) in [a, b, c, d].into_iter().zip(1..) {
            assert_eq!(v.as_ptr() as usize % CACHE_LINE, 0);
            v.fill(x as Real);
        }
        let all = block.to_vec();
        assert_eq!(all[..8], [1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        assert!(all[8..24].iter().all(|&v| v == 3.0));
        assert!(all[24..33].iter().all(|&v| v == 4.0));
    }
}
