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
//!
//! # Huge blocks
//!
//! A block of at least [`HUGE_PAGE`] bytes is an anonymous mapping of its
//! own, starting on a huge-page boundary and advised `MADV_HUGEPAGE`, so
//! its first writes fault once per 2 MiB instead of once per 4 KiB (see
//! [`SharedVec::zeroed`]). This file is the only one that declares or
//! calls `mmap`, `munmap` or `madvise` (`scripts/check.sh` holds it to
//! that).

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

/// One x86-64 transparent huge page (bytes): the size from which a
/// [`SharedVec`]'s cells get a mapping of their own.
pub const HUGE_PAGE: usize = 2 << 20;

/// Whether the `n` cells of a `SharedVec<T>` are their own huge-page
/// mapping ([`huge::map`]) instead of an allocator block. The mapping path
/// exists on x86-64 Linux outside Miri; elsewhere every block comes from
/// the allocator. Recomputed identically at drop time.
fn mapped<T>(n: usize) -> bool {
    cfg!(all(target_os = "linux", target_arch = "x86_64", not(miri)))
        && n * std::mem::size_of::<T>() >= HUGE_PAGE
}

/// Anonymous mappings for huge blocks, through the C library's `mmap`,
/// `munmap` and `madvise`.
#[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
mod huge {
    use super::HUGE_PAGE;
    use std::ffi::c_void;

    const PAGE: usize = 4096;
    const PROT_READ: i32 = 1;
    const PROT_WRITE: i32 = 2;
    const MAP_PRIVATE: i32 = 2;
    const MAP_ANONYMOUS: i32 = 0x20;
    const MADV_HUGEPAGE: i32 = 14;
    const MAP_FAILED: *mut c_void = !0 as *mut c_void;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            off: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
        fn madvise(addr: *mut c_void, len: usize, advice: i32) -> i32;
    }

    /// A fresh zero-filled read-write mapping of `bytes` (rounded up to
    /// whole 4 KiB pages, no further), starting on a [`HUGE_PAGE`]
    /// boundary and advised `MADV_HUGEPAGE`. It over-reserves one huge page
    /// and trims both ends, so no part of the returned range is shared with
    /// another mapping. The pages fault in on first touch; where the kernel
    /// has transparent huge pages on `madvise` or `always`, each 2 MiB of
    /// the range faults once, and the 4 KiB tail past the last boundary
    /// page by page. Where they are off the advice changes nothing, and
    /// where the kernel lacks them its failure is ignored.
    pub(super) fn map(bytes: usize) -> *mut u8 {
        let span = bytes.div_ceil(PAGE) * PAGE;
        // SAFETY: an anonymous private mapping at an address of the
        // kernel's choosing aliases no existing memory; the two `munmap`s
        // release page-aligned parts of it that nothing refers to, and
        // `madvise` only changes how the kept range is backed.
        unsafe {
            let raw = mmap(
                std::ptr::null_mut(),
                span + HUGE_PAGE,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            );
            if raw == MAP_FAILED {
                let layout = std::alloc::Layout::from_size_align(span, HUGE_PAGE);
                std::alloc::handle_alloc_error(layout.expect("layout overflow"));
            }
            // `raw` is page aligned, so `lead` is a whole number of pages
            // below one huge page, and the trailing part is never empty.
            let raw = raw as *mut u8;
            let lead = raw.align_offset(HUGE_PAGE);
            let start = raw.add(lead);
            if lead > 0 {
                munmap(raw as *mut c_void, lead);
            }
            munmap(start.add(span) as *mut c_void, HUGE_PAGE - lead);
            madvise(start as *mut c_void, span, MADV_HUGEPAGE);
            start
        }
    }

    /// Release a mapping of `bytes` from [`map`]. It runs in `Drop`, so a
    /// failed `munmap` is not raised: the range then just stays mapped.
    ///
    /// # Safety
    /// `start` came from `map(bytes)`, and nothing refers to it any more.
    pub(super) unsafe fn unmap(start: *mut u8, bytes: usize) {
        munmap(start as *mut c_void, bytes);
    }
}

/// Stand-in where huge blocks stay with the allocator: [`mapped`] is then
/// always false, so neither function is reached.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64", not(miri))))]
mod huge {
    pub(super) fn map(_bytes: usize) -> *mut u8 {
        unreachable!("huge blocks are allocator blocks on this target")
    }

    pub(super) unsafe fn unmap(_start: *mut u8, _bytes: usize) {
        unreachable!("huge blocks are allocator blocks on this target")
    }
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
    /// Owned allocation of [`block_layout`]`::<T>(len)`, or the cells' own
    /// mapping when [`mapped`]`::<T>(len)`: its cells are dropped and it is
    /// freed or unmapped in `Drop`, which recomputes which.
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
    /// Allocate `n` zero elements **without touching the memory**: fresh
    /// zero pages, which are faulted in (and count towards the resident
    /// set) only when first written. `from_elem(0, n)` by contrast writes,
    /// and so faults, every page up front.
    ///
    /// A block of at least [`HUGE_PAGE`] bytes is its own mapping of
    /// exactly its length, on a huge-page boundary and advised
    /// `MADV_HUGEPAGE` (on x86-64 Linux): where the kernel grants
    /// transparent huge pages, its first writes fault once per 2 MiB
    /// rather than once per 4 KiB page. Smaller blocks come from
    /// `alloc_zeroed`, which for large sizes hands back untouched pages too.
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
    /// `alloc(block_layout::<T>(n))`, or at the start of a zeroed mapping
    /// of their own when they fill at least a [`HUGE_PAGE`].
    ///
    /// # Safety
    /// The block's bytes must be valid `T`s before any cell is read or
    /// dropped (`Drop` drops all `n`).
    unsafe fn in_block(n: usize, alloc: unsafe fn(Layout) -> *mut u8) -> Self {
        let layout = block_layout::<T>(n);
        if mapped::<T>(n) {
            // A huge-page boundary is aligned for any `T`.
            let base = huge::map(n * std::mem::size_of::<T>());
            return Self {
                ptr: base as *mut UnsafeCell<T>,
                len: n,
                base,
                check: None,
            };
        }
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
        // block `base`, mapped or allocated by `in_block` for exactly this
        // `len`; `&mut self` proves no aliases remain.
        unsafe {
            std::ptr::drop_in_place(std::ptr::slice_from_raw_parts_mut(
                self.ptr as *mut T,
                self.len,
            ));
            if mapped::<T>(self.len) {
                huge::unmap(self.base, self.len * std::mem::size_of::<T>());
            } else {
                std::alloc::dealloc(self.base, block_layout::<T>(self.len));
            }
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

    /// The mapping of `/proc/self/smaps` that holds `addr`: its
    /// `start..end` and its `VmFlags` line.
    #[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
    fn vma_of(addr: usize) -> Option<(std::ops::Range<usize>, String)> {
        let smaps = std::fs::read_to_string("/proc/self/smaps").unwrap();
        let mut range = None;
        for line in smaps.lines() {
            let first = line.split_whitespace().next().unwrap_or("");
            if let Some((lo, hi)) = first.split_once('-') {
                let hex = |s| usize::from_str_radix(s, 16).ok();
                range = hex(lo).zip(hex(hi)).map(|(lo, hi)| lo..hi);
            } else if let (Some(flags), Some(r)) = (line.strip_prefix("VmFlags:"), &range) {
                if r.contains(&addr) {
                    return Some((r.clone(), flags.to_string()));
                }
            }
        }
        None
    }

    #[test]
    #[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
    fn huge_blocks_are_their_own_advised_mapping() {
        // Not a whole number of pages: the mapping still ends on the first
        // 4 KiB boundary past the cells.
        let n = HUGE_PAGE / 8 + 1000;
        let mut big = SharedVec::<f64>::zeroed(n);
        let start = big.as_ptr() as usize;
        assert_eq!(start % HUGE_PAGE, 0);
        assert!(big.as_mut_slice().iter().all(|&v| v == 0.0));
        let (range, flags) = vma_of(start).expect("the block is mapped");
        assert_eq!(range, start..start + (8 * n).div_ceil(4096) * 4096);
        // `hg` is the `MADV_HUGEPAGE` mark; a kernel built without
        // transparent huge pages refuses the advice.
        if std::path::Path::new("/sys/kernel/mm/transparent_hugepage").exists() {
            assert!(flags.split_whitespace().any(|f| f == "hg"), "{flags}");
        }
        unsafe { big.write(n - 1, 2.0) };
        assert_eq!(big.to_vec()[n - 1], 2.0);
        drop(big);
        let maps = std::fs::read_to_string("/proc/self/maps").unwrap();
        let gone = !maps.lines().any(|l| l.starts_with(&format!("{start:x}-")));
        assert!(gone, "the block's mapping outlived it");
        // The other constructors take the same path.
        let e = SharedVec::from_elem(1.5f64, n);
        assert_eq!(e.as_ptr() as usize % HUGE_PAGE, 0);
        assert_eq!(unsafe { e.load(n - 1) }, 1.5);
    }

    #[test]
    #[cfg(all(target_os = "linux", target_arch = "x86_64", not(miri)))]
    fn blocks_under_a_huge_page_stay_with_the_allocator() {
        let n = (1 << 20) / 8;
        let small = SharedVec::<f64>::zeroed(n);
        assert!(!mapped::<f64>(n) && mapped::<f64>(2 * n));
        let (_, flags) = vma_of(small.as_ptr() as usize).expect("the block is mapped");
        assert!(!flags.split_whitespace().any(|f| f == "hg"), "{flags}");
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
