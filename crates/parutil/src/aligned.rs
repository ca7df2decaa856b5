//! Cache-line-aligned owned scratch buffers.
//!
//! [`AlignedBuf`] is the pool-friendly counterpart of
//! [`SharedVec`](crate::SharedVec): a growable `Vec<T>`-like buffer whose
//! allocation always starts on a 64-byte boundary (see
//! [`CACHE_LINE`](crate::shared_slice::CACHE_LINE)), so lane-group loads in
//! the SIMD kernels never straddle a cache line. It is restricted to
//! [`ZeroBits`] element types because the kernels only ever need
//! "`len` zeros, reusing capacity" semantics — that keeps every reset a
//! single `memset` and makes the buffer trivially panic-safe.

use crate::shared_slice::{ZeroBits, CACHE_LINE};
use std::alloc::Layout;

/// A 64-byte-aligned, zero-fill-resettable scratch buffer.
///
/// Dereferences to `[T]`, so call sites that used to take `&mut Vec<T>`
/// slices keep working unchanged. Capacity only grows; `reset_zeroed` on a
/// warmed-up buffer is allocation-free (the property the per-worker
/// `KernelScratch` pools rely on).
pub struct AlignedBuf<T: ZeroBits> {
    /// Aligned allocation of `cap` elements, dangling when `cap == 0`.
    /// All `cap` elements are initialised at all times, not only the first
    /// `len`: every path that allocates (`reset_zeroed`, `resize_zeroed`,
    /// `clone`) writes the whole new capacity before returning.
    ptr: *mut T,
    len: usize,
    cap: usize,
}

// SAFETY: `AlignedBuf` owns its allocation and hands out references only
// through `&self`/`&mut self`, so the usual container rules apply.
unsafe impl<T: ZeroBits + Send> Send for AlignedBuf<T> {}
unsafe impl<T: ZeroBits + Sync> Sync for AlignedBuf<T> {}

fn buf_layout<T>(cap: usize) -> Layout {
    Layout::array::<T>(cap)
        .and_then(|l| l.align_to(CACHE_LINE))
        .expect("layout overflow")
}

impl<T: ZeroBits> AlignedBuf<T> {
    /// An empty buffer (no allocation).
    pub const fn new() -> Self {
        Self {
            ptr: std::ptr::NonNull::dangling().as_ptr(),
            len: 0,
            cap: 0,
        }
    }

    /// `len` zeros, allocated up front.
    pub fn zeroed(len: usize) -> Self {
        let mut b = Self::new();
        b.reset_zeroed(len);
        b
    }

    /// Number of live elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no live elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Base pointer (64-byte aligned whenever capacity is non-zero).
    #[inline]
    pub fn as_ptr(&self) -> *const T {
        self.ptr as *const T
    }

    /// Ensure capacity for `n` elements; contents unspecified afterwards,
    /// so a caller that grew the buffer must write all `n` before returning.
    fn reserve_exact(&mut self, n: usize) {
        if n <= self.cap {
            return;
        }
        let layout = buf_layout::<T>(n);
        // SAFETY: non-zero-sized layout (`n > cap >= 0`, `T` is a ZeroBits
        // numeric, so not a ZST); the old allocation (if any) is freed with
        // the identically computed layout for its capacity.
        unsafe {
            let ptr = std::alloc::alloc(layout) as *mut T;
            if ptr.is_null() {
                std::alloc::handle_alloc_error(layout);
            }
            if self.cap > 0 {
                std::alloc::dealloc(self.ptr as *mut u8, buf_layout::<T>(self.cap));
            }
            self.ptr = ptr;
        }
        self.cap = n;
    }

    /// Make the buffer exactly `n` zeros, reusing capacity when possible
    /// (equivalent to `buf.clear(); buf.resize(n, 0)` on a `Vec`).
    pub fn reset_zeroed(&mut self, n: usize) {
        self.reserve_exact(n);
        // SAFETY: `n <= cap`, allocation owned; all-zero bytes are a valid
        // `T` per the `ZeroBits` bound.
        unsafe { std::ptr::write_bytes(self.ptr, 0u8, n) };
        self.len = n;
    }

    /// Make the buffer `n` elements long without touching its contents
    /// when they fit the current capacity: the elements keep whatever
    /// (stale) values they last held. For scratch whose every element the
    /// next kernel overwrites, where [`reset_zeroed`](Self::reset_zeroed)'s
    /// `memset` would be pure memory traffic. Growth past the capacity
    /// falls back to `reset_zeroed`.
    pub fn reset_len(&mut self, n: usize) {
        if n > self.cap {
            self.reset_zeroed(n);
        } else {
            // Sound because all `cap` elements are initialised (see `ptr`).
            self.len = n;
        }
    }

    /// Resize to `n` elements, keeping the current prefix and zero-filling
    /// any growth (equivalent to `buf.resize(n, 0)` on a `Vec`).
    pub fn resize_zeroed(&mut self, n: usize) {
        if n <= self.len {
            self.len = n;
            return;
        }
        if n > self.cap {
            let old_ptr = self.ptr;
            let old_cap = self.cap;
            let keep = self.len;
            let layout = buf_layout::<T>(n);
            // SAFETY: fresh zeroed allocation; prefix copied from the old
            // buffer before it is freed with its own recomputed layout.
            unsafe {
                let ptr = std::alloc::alloc_zeroed(layout) as *mut T;
                if ptr.is_null() {
                    std::alloc::handle_alloc_error(layout);
                }
                std::ptr::copy_nonoverlapping(old_ptr as *const T, ptr, keep);
                if old_cap > 0 {
                    std::alloc::dealloc(old_ptr as *mut u8, buf_layout::<T>(old_cap));
                }
                self.ptr = ptr;
            }
            self.cap = n;
        } else {
            // SAFETY: the grown region `len..n` is within capacity.
            unsafe { std::ptr::write_bytes(self.ptr.add(self.len), 0u8, n - self.len) };
        }
        self.len = n;
    }
}

impl<T: ZeroBits> Default for AlignedBuf<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: ZeroBits> Drop for AlignedBuf<T> {
    fn drop(&mut self) {
        if self.cap > 0 {
            // SAFETY: owned allocation, layout recomputed from capacity;
            // `T: ZeroBits` is `Copy`, so no element drops are needed.
            unsafe { std::alloc::dealloc(self.ptr as *mut u8, buf_layout::<T>(self.cap)) };
        }
    }
}

impl<T: ZeroBits> Clone for AlignedBuf<T> {
    fn clone(&self) -> Self {
        let mut b = Self::new();
        b.reserve_exact(self.len);
        // SAFETY: both allocations hold at least `len` elements.
        unsafe { std::ptr::copy_nonoverlapping(self.ptr as *const T, b.ptr, self.len) };
        b.len = self.len;
        b
    }
}

impl<T: ZeroBits> std::ops::Deref for AlignedBuf<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        // SAFETY: `len` initialized elements, exclusive ownership rules.
        unsafe { std::slice::from_raw_parts(self.ptr as *const T, self.len) }
    }
}

impl<T: ZeroBits> std::ops::DerefMut for AlignedBuf<T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut [T] {
        // SAFETY: `&mut self` guarantees exclusivity.
        unsafe { std::slice::from_raw_parts_mut(self.ptr, self.len) }
    }
}

impl<T: ZeroBits + std::fmt::Debug> std::fmt::Debug for AlignedBuf<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty_and_aligned_after_growth() {
        let mut b = AlignedBuf::<f64>::new();
        assert!(b.is_empty());
        for n in [1usize, 3, 7, 64, 65, 1000] {
            b.reset_zeroed(n);
            assert_eq!(b.len(), n);
            assert_eq!(b.as_ptr() as usize % CACHE_LINE, 0, "reset_zeroed({n})");
            assert!(b.iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn reset_reuses_capacity_and_rezeroes() {
        let mut b = AlignedBuf::<f64>::zeroed(100);
        let p = b.as_ptr();
        b.iter_mut().for_each(|v| *v = 7.0);
        b.reset_zeroed(40);
        assert_eq!(b.as_ptr(), p, "no reallocation when shrinking");
        assert_eq!(b.len(), 40);
        assert!(b.iter().all(|&v| v == 0.0), "stale contents re-zeroed");
    }

    #[test]
    fn reset_len_changes_only_the_length_within_capacity() {
        let mut b = AlignedBuf::<f64>::zeroed(8);
        b.iter_mut().for_each(|v| *v = 7.0);
        let p = b.as_ptr();
        b.reset_len(4);
        b.reset_len(8); // regrow within capacity: stale values, no memset
        assert_eq!((b.len(), b.as_ptr()), (8, p));
        assert!(b.iter().all(|&v| v == 7.0));
        b.reset_len(100); // past the capacity: a fresh zeroed allocation
        assert_eq!(b.len(), 100);
        assert!(b.iter().all(|&v| v == 0.0));
        assert_eq!(b.as_ptr() as usize % CACHE_LINE, 0);
    }

    #[test]
    fn resize_keeps_prefix_and_zero_fills_growth() {
        let mut b = AlignedBuf::<u64>::zeroed(4);
        b.copy_from_slice(&[1, 2, 3, 4]);
        b.resize_zeroed(2);
        b.resize_zeroed(6); // regrow within capacity: tail must be re-zeroed
        assert_eq!(&b[..], &[1, 2, 0, 0, 0, 0]);
        b[5] = 9;
        b.resize_zeroed(100); // regrow across a reallocation
        assert_eq!(&b[..6], &[1, 2, 0, 0, 0, 9]);
        assert!(b[6..].iter().all(|&v| v == 0));
        assert_eq!(b.as_ptr() as usize % CACHE_LINE, 0);
    }

    #[test]
    fn clone_copies_contents_into_aligned_storage() {
        let mut b = AlignedBuf::<f64>::zeroed(5);
        b.copy_from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        let c = b.clone();
        assert_eq!(&c[..], &b[..]);
        assert_eq!(c.as_ptr() as usize % CACHE_LINE, 0);
        let empty = AlignedBuf::<f64>::default().clone();
        assert!(empty.is_empty());
    }
}
