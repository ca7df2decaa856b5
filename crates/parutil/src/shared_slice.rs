//! Disjoint-write shared slices.
//!
//! Every parallel loop in LULESH has the shape "for i in `lo..hi`: write
//! `out[i]` (or `out[f(i)]` with `f` injective across concurrently running
//! partitions) reading any number of other arrays". Rust's borrow checker
//! cannot see that two tasks write disjoint index sets of the same `Vec`, so
//! this module provides the single, contained `unsafe` primitive the rest of
//! the workspace builds on.
//!
//! # Safety contract
//!
//! [`SharedVec::get_mut`] and the `write`/`add` helpers require that no two
//! threads concurrently touch the same index with at least one of them
//! writing. The LULESH drivers uphold this structurally:
//!
//! * dense kernels write only indices inside their own partition
//!   (`chunk_range` guarantees partitions are disjoint and exhaustive);
//! * element-indexed scratch (e.g. `fx_elem[8*k..8*k+8]`) is written by the
//!   task owning element `k` only;
//! * region-indexed writes (`EvalEOSForElems`) are disjoint because every
//!   element belongs to exactly one region (asserted by
//!   `lulesh_core::regions` tests).
//!
//! With `debug_assertions` enabled, [`SharedVec`] can optionally record
//! writers per index and panic on overlap (see [`SharedVec::with_overlap_checks`]).
//! Only this module's own unit tests turn the checks on; no driver or
//! integration test does. A checker that runs over the drivers' step plans
//! is ROADMAP item 13.

use std::alloc::Layout;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, Ordering};

/// Allocation alignment (bytes) for [`SharedVec`] and
/// [`AlignedBuf`](crate::aligned::AlignedBuf) storage: one x86-64 cache
/// line, which is also ≥ the widest vector register (AVX-512 = 64 B), so
/// lane-group loads starting at a multiple of the lane width never straddle
/// a cache line.
pub const CACHE_LINE: usize = 64;

/// Layout of the block holding `n` cells of a [`SharedVec`]: the cells plus
/// one [`CACHE_LINE`] of slack, at the cells' own alignment, so the cells
/// can start on the first line boundary inside it. Asking the system
/// allocator for more than its natural alignment would make `alloc_zeroed`
/// `memset` the block on the calling thread instead of returning
/// `calloc`'s untouched zero pages. Must be recomputed identically at
/// dealloc time.
fn block_layout<T>(n: usize) -> Layout {
    let cells = Layout::array::<UnsafeCell<T>>(n).expect("layout overflow");
    Layout::from_size_align(cells.size() + CACHE_LINE, cells.align()).expect("layout overflow")
}

/// An owning array with interior mutability for disjoint parallel writes.
///
/// This is the storage type used by the LULESH `Domain`: tasks hold an
/// `Arc<Domain>` and write disjoint partitions of each field. Optional
/// overlap checking (debug builds) turns contract violations into panics.
pub struct SharedVec<T> {
    /// The `len` cells, 64-byte aligned inside the block at `base`, or
    /// dangling when `len == 0`.
    ptr: *mut UnsafeCell<T>,
    len: usize,
    /// Owned allocation of [`block_layout`]`::<T>(len)`: its cells are
    /// dropped and it is freed in `Drop` with the recomputed layout.
    base: *mut u8,
    /// Writer tags per index; allocated only when overlap checking is on.
    check: Option<Box<[AtomicU32]>>,
}

// SAFETY: all aliased access is gated by `unsafe` methods that carry the
// disjointness contract. `Sync` additionally requires `T: Sync` because the
// contract permits concurrent *reads* of the same index from several
// threads (`&T` crosses threads).
unsafe impl<T: Send> Send for SharedVec<T> {}
unsafe impl<T: Send + Sync> Sync for SharedVec<T> {}

impl<T: Clone> SharedVec<T> {
    /// Allocate `n` elements, each initialized to `v`.
    ///
    /// Every cell is written once, in place, on the calling thread, so
    /// all pages fault here. [`zeroed`](SharedVec::zeroed) instead leaves
    /// them untouched until their first write.
    pub fn from_elem(v: T, n: usize) -> Self {
        if n == 0 {
            return Self::from_vec(Vec::new());
        }
        // SAFETY: the `n` cells of the fresh block are each written once
        // before it is returned. Until then it sits in a `ManuallyDrop`:
        // a panicking `clone` leaks the block and the cells written so far
        // rather than dropping cells that were never written.
        unsafe {
            let s = std::mem::ManuallyDrop::new(Self::in_block(n, std::alloc::alloc));
            let cells = s.ptr as *mut T;
            for i in 0..n - 1 {
                cells.add(i).write(v.clone());
            }
            cells.add(n - 1).write(v);
            std::mem::ManuallyDrop::into_inner(s)
        }
    }
}

/// Marker for types whose all-zero byte pattern is a valid value (the
/// numeric primitives LULESH stores). Gate for
/// [`SharedVec::zeroed`]'s untouched-pages allocation.
pub trait ZeroBits: Copy {}
macro_rules! zero_bits {
    ($($t:ty),*) => { $(impl ZeroBits for $t {})* };
}
zero_bits!(f32, f64, u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<T: ZeroBits> SharedVec<T> {
    /// Allocate `n` zero elements via `alloc_zeroed` **without touching
    /// the memory**: for large arrays the allocator hands back fresh zero
    /// pages, which are faulted in (and count towards the resident set)
    /// only when first written. `from_elem(0, n)` by contrast writes, and
    /// so faults, every page up front.
    pub fn zeroed(n: usize) -> Self {
        if n == 0 {
            return Self::from_vec(Vec::new());
        }
        // SAFETY: all-zero bytes are a valid `T` per the `ZeroBits` bound,
        // and `UnsafeCell<T>` is `repr(transparent)`.
        unsafe { Self::in_block(n, std::alloc::alloc_zeroed) }
    }
}

impl<T> SharedVec<T> {
    /// Take ownership of a `Vec`, moving its elements into a fresh
    /// 64-byte-aligned allocation.
    pub fn from_vec(mut v: Vec<T>) -> Self {
        let n = v.len();
        if n == 0 {
            return Self {
                ptr: std::ptr::NonNull::dangling().as_ptr(),
                len: 0,
                base: std::ptr::null_mut(),
                check: None,
            };
        }
        // SAFETY: the elements are *moved* out of the Vec with a bitwise
        // copy into the fresh cells, and the Vec's length is zeroed before
        // it drops, so each value has exactly one owner. `UnsafeCell<T>` is
        // `repr(transparent)`, so writing `T` through the cell pointer is
        // layout-correct.
        unsafe {
            let s = Self::in_block(n, std::alloc::alloc);
            std::ptr::copy_nonoverlapping(v.as_ptr(), s.ptr as *mut T, n);
            v.set_len(0);
            s
        }
    }

    /// `n > 0` cells at the first 64-byte boundary of a block from
    /// `alloc(block_layout::<T>(n))`.
    ///
    /// # Safety
    /// The block's bytes must be valid `T`s before any cell is read or
    /// dropped (`Drop` drops all `n`).
    unsafe fn in_block(n: usize, alloc: unsafe fn(Layout) -> *mut u8) -> Self {
        let layout = block_layout::<T>(n);
        let base = alloc(layout);
        if base.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        // `base` is aligned to `T`, whose alignment is a power of two, so the
        // distance to the next line boundary is a multiple of it (zero when
        // it exceeds a line) and smaller than the line of slack.
        let offset = (CACHE_LINE - base as usize % CACHE_LINE) % CACHE_LINE;
        Self {
            ptr: base.add(offset) as *mut UnsafeCell<T>,
            len: n,
            base,
            check: None,
        }
    }

    /// Pointer to the first element (64-byte aligned for `len > 0`).
    #[inline]
    pub fn as_ptr(&self) -> *const T {
        self.ptr as *const T
    }

    /// Enable per-index writer tracking (costs one `AtomicU32` per element).
    /// Only this module's unit tests turn it on (see the module docs).
    pub fn with_overlap_checks(mut self) -> Self {
        let n = self.len;
        self.check = Some((0..n).map(|_| AtomicU32::new(u32::MAX)).collect());
        self
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Raw pointer to cell `i`'s value (bounds-checked in debug builds).
    #[inline]
    fn cell(&self, i: usize) -> *mut T {
        debug_assert!(i < self.len);
        // SAFETY: `i < len`, and the allocation outlives `&self`.
        unsafe { (*self.ptr.add(i)).get() }
    }

    /// Read element `i`.
    ///
    /// # Safety
    /// No thread may be concurrently writing index `i`.
    #[inline]
    pub unsafe fn get(&self, i: usize) -> &T {
        &*self.cell(i)
    }

    /// Mutable access to element `i`.
    ///
    /// # Safety
    /// No other thread may concurrently access index `i`.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn get_mut(&self, i: usize) -> &mut T {
        &mut *self.cell(i)
    }

    /// Write `v` into element `i`, recording the writer when overlap checks
    /// are enabled.
    ///
    /// # Safety
    /// Same as [`get_mut`](Self::get_mut).
    #[inline]
    pub unsafe fn write_tagged(&self, i: usize, v: T, writer: u32) {
        if let Some(check) = &self.check {
            let prev = check[i].swap(writer, Ordering::Relaxed);
            assert!(
                prev == u32::MAX || prev == writer,
                "overlapping write to index {i}: writers {prev} and {writer}"
            );
        }
        *self.cell(i) = v;
    }

    /// Write `v` into element `i`.
    ///
    /// # Safety
    /// Same as [`get_mut`](Self::get_mut).
    #[inline]
    pub unsafe fn write(&self, i: usize, v: T) {
        *self.cell(i) = v;
    }

    /// Reset overlap-check writer tags (call between parallel phases).
    pub fn clear_tags(&self) {
        if let Some(check) = &self.check {
            for c in check.iter() {
                c.store(u32::MAX, Ordering::Relaxed);
            }
        }
    }

    /// View the whole array as a shared slice.
    ///
    /// # Safety
    /// No thread may concurrently write any index.
    #[inline]
    pub unsafe fn as_slice(&self) -> &[T] {
        std::slice::from_raw_parts(self.ptr as *const T, self.len())
    }

    /// View a sub-range as a plain mutable slice.
    ///
    /// # Safety
    /// No other thread may access any index in `lo..hi` while alive.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slice_mut(&self, lo: usize, hi: usize) -> &mut [T] {
        debug_assert!(lo <= hi && hi <= self.len());
        std::slice::from_raw_parts_mut(self.ptr.add(lo) as *mut T, hi - lo)
    }

    /// View a sub-range as a plain shared slice.
    ///
    /// # Safety
    /// No thread may concurrently write any index in `lo..hi` while alive.
    #[inline]
    pub unsafe fn slice(&self, lo: usize, hi: usize) -> &[T] {
        debug_assert!(lo <= hi && hi <= self.len());
        std::slice::from_raw_parts(self.ptr.add(lo) as *const T, hi - lo)
    }

    /// Exclusive view over the whole array (requires `&mut self`, safe).
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        // SAFETY: `&mut self` guarantees exclusivity.
        unsafe { std::slice::from_raw_parts_mut(self.ptr as *mut T, self.len()) }
    }
}

impl<T> Drop for SharedVec<T> {
    fn drop(&mut self) {
        if self.len == 0 {
            return;
        }
        // SAFETY: `ptr`/`len` describe owned, initialized cells inside the
        // block `base` allocated with exactly this layout; `&mut self`
        // proves no aliases remain.
        unsafe {
            std::ptr::drop_in_place(std::ptr::slice_from_raw_parts_mut(
                self.ptr as *mut T,
                self.len,
            ));
            std::alloc::dealloc(self.base, block_layout::<T>(self.len));
        }
    }
}

impl<T: Copy + std::ops::AddAssign> SharedVec<T> {
    /// `self[i] += v`.
    ///
    /// # Safety
    /// Same as [`get_mut`](Self::get_mut).
    #[inline]
    pub unsafe fn add(&self, i: usize, v: T) {
        *self.cell(i) += v;
    }
}

impl<T: Copy> SharedVec<T> {
    /// Read element `i` by value (a raw-pointer read; no reference to the
    /// cell is materialized, so the only possible UB is a genuine data race
    /// on index `i` itself).
    ///
    /// # Safety
    /// No thread may be concurrently writing index `i`.
    #[inline]
    pub unsafe fn load(&self, i: usize) -> T {
        (self.cell(i) as *const T).read()
    }

    /// Copy the contents out into a `Vec`.
    ///
    /// Requires `&mut self`, so it is safe: no concurrent access possible.
    pub fn to_vec(&mut self) -> Vec<T> {
        self.as_mut_slice().to_vec()
    }

    /// Fill every element with `v` (safe: exclusive access).
    pub fn fill(&mut self, v: T) {
        self.as_mut_slice().fill(v);
    }
}

impl<T: Clone> Clone for SharedVec<T> {
    fn clone(&self) -> Self {
        // SAFETY: `clone` takes `&self`; callers must not clone while a
        // parallel phase is writing. All workspace call sites clone between
        // phases (single-threaded control code). Cloning into a Vec first
        // keeps a panicking `clone` away from a half-initialized allocation.
        let v: Vec<T> = (0..self.len())
            .map(|i| unsafe { self.get(i) }.clone())
            .collect();
        Self::from_vec(v)
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for SharedVec<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SharedVec(len={})", self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn shared_vec_disjoint_parallel_writes() {
        let sv = Arc::new(SharedVec::from_elem(0usize, 1000));
        let mut handles = vec![];
        for t in 0..4 {
            let sv = Arc::clone(&sv);
            handles.push(std::thread::spawn(move || {
                for i in (t * 250)..((t + 1) * 250) {
                    // SAFETY: each thread writes its own quarter.
                    unsafe { sv.write(i, i * 2) };
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut sv = Arc::try_unwrap(sv).ok().unwrap();
        for (i, v) in sv.to_vec().into_iter().enumerate() {
            assert_eq!(v, i * 2);
        }
    }

    #[test]
    fn from_elem_clones_into_every_cell() {
        let mut sv = SharedVec::from_elem(String::from("ab"), 5);
        assert_eq!(sv.as_ptr() as usize % CACHE_LINE, 0);
        assert_eq!(unsafe { sv.as_slice() }, vec!["ab"; 5]);
        sv.as_mut_slice()[4].push('c');
        assert_eq!(unsafe { sv.get(3) }, "ab");
        assert_eq!(SharedVec::from_elem(1.5f64, 0).len(), 0);
        assert_eq!(SharedVec::from_elem(7u32, 1).to_vec(), [7]);
    }

    #[test]
    fn overlap_checker_accepts_disjoint() {
        let sv = SharedVec::from_elem(0u8, 8).with_overlap_checks();
        unsafe {
            sv.write_tagged(0, 1, 0);
            sv.write_tagged(1, 1, 1);
            sv.write_tagged(0, 2, 0); // same writer again: fine
        }
    }

    #[test]
    #[should_panic(expected = "overlapping write")]
    fn overlap_checker_rejects_overlap() {
        let sv = SharedVec::from_elem(0u8, 8).with_overlap_checks();
        unsafe {
            sv.write_tagged(0, 1, 0);
            sv.write_tagged(0, 2, 1);
        }
    }

    #[test]
    fn clear_tags_resets_writers() {
        let sv = SharedVec::from_elem(0u8, 4).with_overlap_checks();
        unsafe { sv.write_tagged(2, 9, 7) };
        sv.clear_tags();
        unsafe { sv.write_tagged(2, 9, 8) }; // no panic after reset
    }

    #[test]
    fn slice_mut_roundtrip() {
        let mut sv = SharedVec::from_vec((0..10i32).collect());
        unsafe {
            let sub = sv.slice_mut(2, 5);
            sub.copy_from_slice(&[7, 8, 9]);
        }
        assert_eq!(sv.to_vec(), vec![0, 1, 7, 8, 9, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn zeroed_is_all_zero_and_writable() {
        let mut sv = SharedVec::<f64>::zeroed(1000);
        assert_eq!(sv.len(), 1000);
        assert!(sv.as_mut_slice().iter().all(|&v| v == 0.0));
        unsafe { sv.write(999, 3.5) };
        assert_eq!(unsafe { sv.load(999) }, 3.5);
        let empty = SharedVec::<u32>::zeroed(0);
        assert!(empty.is_empty());
    }

    #[test]
    fn allocations_are_cache_line_aligned() {
        // Every constructor path, across sizes that are not multiples of the
        // line (ragged allocations must still start aligned).
        for n in [1usize, 2, 3, 7, 8, 63, 64, 65, 1000] {
            let z = SharedVec::<f64>::zeroed(n);
            assert_eq!(z.as_ptr() as usize % CACHE_LINE, 0, "zeroed({n})");
            let e = SharedVec::from_elem(1.5f64, n);
            assert_eq!(e.as_ptr() as usize % CACHE_LINE, 0, "from_elem({n})");
            let v = SharedVec::from_vec(vec![0u32; n]);
            assert_eq!(v.as_ptr() as usize % CACHE_LINE, 0, "from_vec({n})");
            let c = e.clone();
            assert_eq!(c.as_ptr() as usize % CACHE_LINE, 0, "clone({n})");
        }
    }

    #[test]
    fn from_vec_drops_elements_exactly_once() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Clone)]
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        DROPS.store(0, Ordering::Relaxed);
        let sv = SharedVec::from_vec(vec![Counted, Counted, Counted]);
        assert_eq!(DROPS.load(Ordering::Relaxed), 0, "moved, not dropped");
        drop(sv);
        assert_eq!(DROPS.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn fill_and_len() {
        let mut sv = SharedVec::from_elem(1.0f64, 5);
        sv.fill(2.5);
        assert_eq!(sv.to_vec(), vec![2.5; 5]);
        assert_eq!(sv.len(), 5);
        assert!(!sv.is_empty());
    }
}
