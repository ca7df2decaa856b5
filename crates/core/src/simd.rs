//! Explicit-width SIMD lane engine for the hot element kernels.
//!
//! Stable-Rust, zero-dependency data parallelism: a *pack* holds `LANES`
//! independent elements and implements every arithmetic op
//! *elementwise*, so a lane-blocked kernel performs, per element, exactly
//! the same IEEE-754 operation sequence as the scalar loop — results are
//! bit-identical at every width (no reassociation, no horizontal
//! reductions, no FMA).
//!
//! Three packs carry the kernels:
//!
//! - [`Lanes<W>`], the portable one: an `[f64; W]` whose ops are
//!   `for i in 0..W` loops. How those loops become instructions is the
//!   compiler's business. Built for baseline x86_64 (SSE2), LLVM's SLP
//!   vectoriser packs some of them and leaves most scalar; that is what
//!   w4 on a CPU without AVX2, w8 on a CPU without AVX-512, and every
//!   other architecture run. Its ops are `#[inline]`, not
//!   `#[inline(always)]`: each is a few instructions once optimised, so
//!   the cost model always takes them, whereas forcing them copies
//!   thousands of unoptimised `0..W` loops into each kernel and LLVM's
//!   loop passes then take 20× as long over the crate (3 s → 68 s,
//!   EXPERIMENTS.md).
//! - `Avx2Pack` and `Avx512Pack` (x86_64 only, crate-private): one
//!   `__m256d` or one `__m512d`, every op a single `#[inline(always)]`
//!   intrinsic — `_mm256_/_mm512_{add,sub,mul,div,sqrt}_pd`, a sign-bit
//!   `xor`/`andnot` for `neg`/`abs`, ordered-quiet compares (`LT_OQ`,
//!   `LE_OQ`, `GT_OQ`, `GE_OQ`, false on NaN like the scalar operators)
//!   with a blend for the selects, and libm `cbrt` per lane. At w4 on a
//!   CPU with AVX2 ([`Isa::Avx2`]) the lane walk runs every kernel's groups
//!   on `Avx2Pack`, inside its one `#[target_feature(enable = "avx2")]`
//!   function; at w8 on a CPU with AVX-512F/DQ ([`Isa::Avx512`]) on
//!   `Avx512Pack`, inside its one
//!   `#[target_feature(enable = "avx512f,avx512dq")]` function. No FMA is
//!   used and LLVM contracts none, so each lane rounds exactly as the
//!   scalar SSE2 operation does. The choice is made from the platform
//!   alone ([`Isa::detect`]); there is no flag for it.
//!
//! One walk runs every lane kernel. A kernel is a struct of its arguments
//! implementing the crate-private `LaneKernel` trait, whose one generic
//! method `group::<P>(e0)` computes `P::LANES` consecutive elements on
//! any pack. The walk (`walk`) holds the one width × ISA match: the
//! `Lanes<1>` tail at `W = 1`, `Lanes<4|8>` groups at the lane widths, at
//! w4 on an AVX2 CPU the same groups on `Avx2Pack`, and at w8 on an
//! AVX-512 CPU on `Avx512Pack` — unless the kernel pins the 4-lane AVX2
//! pack (`LaneKernel::PIN_AVX2`, set by EOS, whose region-list gathers
//! lose at 8 lanes). Every pack's walk ends in the same `#[inline(never)]`
//! `Lanes<1>` tail for the ragged remainder, one baseline copy of the body
//! per kernel. Each kernel dispatcher builds its struct and calls the
//! walk; stress and EOS keep their scalar twins as the `W = 1` reference
//! instead.
//!
//! Soundness rule: the x86 packs' safe methods execute AVX or AVX-512
//! instructions, so the types are private to this file and constructed
//! only inside their walks (`walk_avx2`, `walk_avx512`), which the walk
//! calls only after `is_x86_feature_detected!` held for their features.
//! No safe path reaches them otherwise, and no other file can name them.
//!
//! The shared per-element math of each ported kernel is written once,
//! generic over [`SimdReal`], and each kernel's `group` body once, generic
//! over the crate's pack trait (`gather`, `load`, `store`, `lane`).
//! Divergent branches are handled with per-lane selects
//! ([`SimdReal::select_lt`] etc.): both sides are computed and the untaken
//! lane's value discarded, which preserves bit-identity because the taken
//! side's operation sequence is unchanged.
//!
//! The active width is a process-global ([`set_active`]/[`active`],
//! initially the platform's [`LaneWidth::native`]) that the kernel entry
//! points dispatch on internally, so driver call sites need no signature
//! changes and every driver (serial, OpenMP-style, task, multi-domain)
//! picks up `--simd` uniformly. Because all widths are bit-identical,
//! concurrently running tests that flip the global cannot change any
//! result.
//!
//! Every lane kernel is a single pass per element, so a chunk is walked
//! as plain `LANES`-element groups — there is no cache blocking layer to
//! tune.
//!
//! Inlining is load-bearing here: a helper LLVM declines to inline into
//! an x86 walk is compiled as baseline code — and for the x86 packs a
//! call would cross a target-feature boundary — so the kernels' helper
//! chain (`volume.rs`, `shape.rs`, the `group` bodies) and every pack op
//! are `#[inline(always)]`. `scripts/check.sh` fails if a pack op,
//! pack-trait method or `group` body is left out of line in the release
//! binary.

// The elementwise loops index several arrays at once; iterator zips would
// obscure the per-lane operation.
#![allow(clippy::needless_range_loop)]

use crate::types::Real;
use std::ops::{Add, Div, Mul, Neg, Sub};
use std::sync::atomic::{AtomicU8, Ordering};

/// `W` elements processed in lockstep. `W` must be a power of two ≤ 8 in
/// practice (4, 8); `Lanes<1>` is legal and equivalent to `f64`.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Lanes<const W: usize>(pub [Real; W]);

macro_rules! lanes_binop {
    ($trait:ident, $method:ident, $op:tt) => {
        impl<const W: usize> $trait for Lanes<W> {
            type Output = Self;
            #[inline]
            fn $method(self, rhs: Self) -> Self {
                let mut out = [0.0; W];
                for i in 0..W {
                    out[i] = self.0[i] $op rhs.0[i];
                }
                Lanes(out)
            }
        }
    };
}
lanes_binop!(Add, add, +);
lanes_binop!(Sub, sub, -);
lanes_binop!(Mul, mul, *);
lanes_binop!(Div, div, /);

impl<const W: usize> Neg for Lanes<W> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        let mut out = [0.0; W];
        for i in 0..W {
            out[i] = -self.0[i];
        }
        Lanes(out)
    }
}

/// The value abstraction the generic kernel bodies are written against:
/// a scalar `f64` or a lane pack ([`Lanes<W>`], or the AVX2 pack). Every
/// operation is elementwise, so `f64` and every pack produce bit-identical
/// per-element results.
pub trait SimdReal:
    Copy
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
{
    /// Number of elements per value.
    const LANES: usize;
    /// Broadcast a scalar to every lane.
    fn splat(v: Real) -> Self;
    /// Per-lane `sqrt`.
    fn sqrt(self) -> Self;
    /// Per-lane `cbrt`.
    fn cbrt(self) -> Self;
    /// Per-lane `abs`.
    fn abs(self) -> Self;
    /// Per lane: `if self < rhs { t } else { f }`.
    fn select_lt(self, rhs: Self, t: Self, f: Self) -> Self;
    /// Per lane: `if self <= rhs { t } else { f }`.
    fn select_le(self, rhs: Self, t: Self, f: Self) -> Self;
    /// Per lane: `if self > rhs { t } else { f }`.
    fn select_gt(self, rhs: Self, t: Self, f: Self) -> Self;
    /// Per lane: `if self >= rhs { t } else { f }`.
    fn select_ge(self, rhs: Self, t: Self, f: Self) -> Self;
    /// All-zero value.
    #[inline]
    fn zero() -> Self {
        Self::splat(0.0)
    }
}

impl SimdReal for Real {
    const LANES: usize = 1;
    #[inline]
    fn splat(v: Real) -> Self {
        v
    }
    #[inline]
    fn sqrt(self) -> Self {
        Real::sqrt(self)
    }
    #[inline]
    fn cbrt(self) -> Self {
        Real::cbrt(self)
    }
    #[inline]
    fn abs(self) -> Self {
        Real::abs(self)
    }
    #[inline]
    fn select_lt(self, rhs: Self, t: Self, f: Self) -> Self {
        if self < rhs {
            t
        } else {
            f
        }
    }
    #[inline]
    fn select_le(self, rhs: Self, t: Self, f: Self) -> Self {
        if self <= rhs {
            t
        } else {
            f
        }
    }
    #[inline]
    fn select_gt(self, rhs: Self, t: Self, f: Self) -> Self {
        if self > rhs {
            t
        } else {
            f
        }
    }
    #[inline]
    fn select_ge(self, rhs: Self, t: Self, f: Self) -> Self {
        if self >= rhs {
            t
        } else {
            f
        }
    }
}

macro_rules! lanes_select {
    ($method:ident, $op:tt) => {
        #[inline]
        fn $method(self, rhs: Self, t: Self, f: Self) -> Self {
            let mut out = [0.0; W];
            for i in 0..W {
                out[i] = if self.0[i] $op rhs.0[i] { t.0[i] } else { f.0[i] };
            }
            Lanes(out)
        }
    };
}

impl<const W: usize> SimdReal for Lanes<W> {
    const LANES: usize = W;
    #[inline]
    fn splat(v: Real) -> Self {
        Lanes([v; W])
    }
    #[inline]
    fn sqrt(self) -> Self {
        let mut out = [0.0; W];
        for i in 0..W {
            out[i] = self.0[i].sqrt();
        }
        Lanes(out)
    }
    #[inline]
    fn cbrt(self) -> Self {
        let mut out = [0.0; W];
        for i in 0..W {
            out[i] = self.0[i].cbrt();
        }
        Lanes(out)
    }
    #[inline]
    fn abs(self) -> Self {
        let mut out = [0.0; W];
        for i in 0..W {
            out[i] = self.0[i].abs();
        }
        Lanes(out)
    }
    lanes_select!(select_lt, <);
    lanes_select!(select_le, <=);
    lanes_select!(select_gt, >);
    lanes_select!(select_ge, >=);
}

/// A lane pack the kernels' `group` bodies walk memory with: the
/// [`SimdReal`] arithmetic plus the four ways a group meets the arrays.
/// [`Lanes<W>`] is the portable pack (every baseline width and the `W = 1`
/// tails); on x86_64 `Avx2Pack` and `Avx512Pack` are the ones the x86
/// walks run.
pub(crate) trait Pack: SimdReal {
    /// Build from a per-lane function (the gather primitive).
    fn gather(f: impl FnMut(usize) -> Real) -> Self;
    /// Load `LANES` consecutive values from `src[at..]`.
    fn load(src: &[Real], at: usize) -> Self;
    /// Store the lanes to `dst[at..at + LANES]`.
    fn store(self, dst: &mut [Real], at: usize);
    /// The value of lane `l`.
    fn lane(&self, l: usize) -> Real;
}

impl<const W: usize> Pack for Lanes<W> {
    #[inline]
    fn gather(mut f: impl FnMut(usize) -> Real) -> Self {
        let mut out = [0.0; W];
        for (l, o) in out.iter_mut().enumerate() {
            *o = f(l);
        }
        Lanes(out)
    }
    #[inline]
    fn load(src: &[Real], at: usize) -> Self {
        let mut out = [0.0; W];
        out.copy_from_slice(&src[at..at + W]);
        Lanes(out)
    }
    #[inline]
    fn store(self, dst: &mut [Real], at: usize) {
        dst[at..at + W].copy_from_slice(&self.0);
    }
    #[inline]
    fn lane(&self, l: usize) -> Real {
        self.0[l]
    }
}

#[cfg(target_arch = "x86_64")]
use x86::{Avx2Pack, Avx512Pack};

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Pack, SimdReal};
    use crate::types::Real;
    use std::arch::x86_64::*;
    use std::ops::{Add, Div, Mul, Neg, Sub};

    /// Four `f64` lanes in one AVX register, for the AVX2 lane walk. Every
    /// operation is one `#[inline(always)]` intrinsic, so it is compiled
    /// inside the `#[target_feature(enable = "avx2")]` walk that uses it,
    /// never as baseline code.
    ///
    /// Soundness: the operations execute AVX instructions with no check of
    /// their own, so a value of this type may only exist on a CPU with
    /// AVX2. It is private to `simd.rs` and constructed only inside
    /// `simd::walk_avx2`, which `simd::walk` calls after `Isa::detect` saw
    /// `is_x86_feature_detected!("avx2")`; no safe path reaches it.
    /// `scripts/check.sh` fails if the type is named in any file but
    /// `simd.rs`.
    ///
    /// Bit identity with `f64`: `vaddpd`/`vsubpd`/`vmulpd`/`vdivpd`/
    /// `vsqrtpd` are the IEEE-754 operations of their SSE2 scalar forms,
    /// lane by lane (no FMA, so no fused rounding); `neg` and `abs` only
    /// touch the sign bit, as `-x` and `f64::abs` do; the selects compare
    /// with the ordered-quiet predicates, false on NaN like the scalar
    /// `<`/`<=`/`>`/`>=`; `cbrt` calls libm's per lane.
    #[derive(Copy, Clone)]
    pub(super) struct Avx2Pack(__m256d);

    /// Eight `f64` lanes in one AVX-512 register, for the AVX-512 lane
    /// walk: [`Avx2Pack`] at twice the width. The compares yield a `k`
    /// mask and the selects blend through it.
    ///
    /// Soundness: as for [`Avx2Pack`], with AVX-512F and AVX-512DQ (the
    /// `_pd` forms of `xor`/`andnot`): constructed only inside
    /// `simd::walk_avx512`, which `simd::walk` calls after `Isa::detect`
    /// saw both features (and AVX2).
    ///
    /// Bit identity with `f64`: as for [`Avx2Pack`], lane by lane.
    #[derive(Copy, Clone)]
    pub(super) struct Avx512Pack(__m512d);

    impl Avx2Pack {
        #[inline(always)]
        fn to_array(self) -> [Real; 4] {
            // SAFETY: `__m256d` and `[f64; 4]` are both 32 plain bytes.
            unsafe { std::mem::transmute::<__m256d, [Real; 4]>(self.0) }
        }

        /// Per lane: `if cmp(self, rhs) { t } else { f }`.
        #[inline(always)]
        fn select<const CMP: i32>(self, rhs: Self, t: Self, f: Self) -> Self {
            // SAFETY: a value of this type exists only on an AVX2 CPU (type
            // docs).
            unsafe {
                let mask = _mm256_cmp_pd::<CMP>(self.0, rhs.0);
                Avx2Pack(_mm256_blendv_pd(f.0, t.0, mask))
            }
        }
    }

    impl Avx512Pack {
        #[inline(always)]
        fn to_array(self) -> [Real; 8] {
            // SAFETY: `__m512d` and `[f64; 8]` are both 64 plain bytes.
            unsafe { std::mem::transmute::<__m512d, [Real; 8]>(self.0) }
        }

        /// Per lane: `if cmp(self, rhs) { t } else { f }`.
        #[inline(always)]
        fn select<const CMP: i32>(self, rhs: Self, t: Self, f: Self) -> Self {
            // SAFETY: a value of this type exists only on an AVX-512F/DQ
            // CPU (type docs).
            unsafe {
                let mask = _mm512_cmp_pd_mask::<CMP>(self.0, rhs.0);
                Avx512Pack(_mm512_mask_blend_pd(mask, f.0, t.0))
            }
        }
    }

    /// The four arithmetic operators and `neg` of a pack, each one
    /// intrinsic; `neg` flips the sign bit with `xor`.
    macro_rules! pack_arith {
        ($pack:ident, $add:ident, $sub:ident, $mul:ident, $div:ident, $xor:ident, $set1:ident) => {
            pack_arith!(@op $pack, Add, add, $add);
            pack_arith!(@op $pack, Sub, sub, $sub);
            pack_arith!(@op $pack, Mul, mul, $mul);
            pack_arith!(@op $pack, Div, div, $div);

            impl Neg for $pack {
                type Output = Self;
                #[inline(always)]
                fn neg(self) -> Self {
                    // SAFETY: as for the binary ops.
                    unsafe { $pack($xor(self.0, $set1(-0.0))) }
                }
            }
        };
        (@op $pack:ident, $trait:ident, $method:ident, $intrinsic:ident) => {
            impl $trait for $pack {
                type Output = Self;
                #[inline(always)]
                fn $method(self, rhs: Self) -> Self {
                    // SAFETY: a value of this type exists only on a CPU
                    // with its features (type docs).
                    unsafe { $pack($intrinsic(self.0, rhs.0)) }
                }
            }
        };
    }
    pack_arith!(
        Avx2Pack,
        _mm256_add_pd,
        _mm256_sub_pd,
        _mm256_mul_pd,
        _mm256_div_pd,
        _mm256_xor_pd,
        _mm256_set1_pd
    );
    pack_arith!(
        Avx512Pack,
        _mm512_add_pd,
        _mm512_sub_pd,
        _mm512_mul_pd,
        _mm512_div_pd,
        _mm512_xor_pd,
        _mm512_set1_pd
    );

    /// [`SimdReal`] for a pack: splat, `sqrt`, sign-bit `abs`, per-lane
    /// libm `cbrt`, and the four ordered-quiet selects.
    macro_rules! pack_simd_real {
        ($pack:ident, $lanes:literal, $set1:ident, $sqrt:ident, $andnot:ident) => {
            impl SimdReal for $pack {
                const LANES: usize = $lanes;
                #[inline(always)]
                fn splat(v: Real) -> Self {
                    // SAFETY: called only where a pack may exist (type docs).
                    unsafe { $pack($set1(v)) }
                }
                #[inline(always)]
                fn sqrt(self) -> Self {
                    // SAFETY: as for the binary ops.
                    unsafe { $pack($sqrt(self.0)) }
                }
                #[inline(always)]
                fn cbrt(self) -> Self {
                    let a = self.to_array();
                    Self::gather(|l| a[l].cbrt())
                }
                #[inline(always)]
                fn abs(self) -> Self {
                    // SAFETY: as for the binary ops.
                    unsafe { $pack($andnot($set1(-0.0), self.0)) }
                }
                #[inline(always)]
                fn select_lt(self, rhs: Self, t: Self, f: Self) -> Self {
                    self.select::<_CMP_LT_OQ>(rhs, t, f)
                }
                #[inline(always)]
                fn select_le(self, rhs: Self, t: Self, f: Self) -> Self {
                    self.select::<_CMP_LE_OQ>(rhs, t, f)
                }
                #[inline(always)]
                fn select_gt(self, rhs: Self, t: Self, f: Self) -> Self {
                    self.select::<_CMP_GT_OQ>(rhs, t, f)
                }
                #[inline(always)]
                fn select_ge(self, rhs: Self, t: Self, f: Self) -> Self {
                    self.select::<_CMP_GE_OQ>(rhs, t, f)
                }
            }
        };
    }
    pack_simd_real!(
        Avx2Pack,
        4,
        _mm256_set1_pd,
        _mm256_sqrt_pd,
        _mm256_andnot_pd
    );
    pack_simd_real!(
        Avx512Pack,
        8,
        _mm512_set1_pd,
        _mm512_sqrt_pd,
        _mm512_andnot_pd
    );

    impl Pack for Avx2Pack {
        #[inline(always)]
        fn gather(mut f: impl FnMut(usize) -> Real) -> Self {
            let (a, b, c, d) = (f(0), f(1), f(2), f(3));
            // SAFETY: called only where a pack may exist (type docs).
            unsafe { Avx2Pack(_mm256_setr_pd(a, b, c, d)) }
        }
        #[inline(always)]
        fn load(src: &[Real], at: usize) -> Self {
            let src = &src[at..at + 4];
            // SAFETY: `src` holds 4 values (unaligned load); AVX as above.
            unsafe { Avx2Pack(_mm256_loadu_pd(src.as_ptr())) }
        }
        #[inline(always)]
        fn store(self, dst: &mut [Real], at: usize) {
            let dst = &mut dst[at..at + 4];
            // SAFETY: `dst` holds 4 values (unaligned store); AVX as above.
            unsafe { _mm256_storeu_pd(dst.as_mut_ptr(), self.0) }
        }
        #[inline(always)]
        fn lane(&self, l: usize) -> Real {
            self.to_array()[l]
        }
    }

    impl Pack for Avx512Pack {
        #[inline(always)]
        fn gather(mut f: impl FnMut(usize) -> Real) -> Self {
            let (a, b, c, d) = (f(0), f(1), f(2), f(3));
            let (e, g, h, i) = (f(4), f(5), f(6), f(7));
            // SAFETY: called only where a pack may exist (type docs).
            unsafe { Avx512Pack(_mm512_setr_pd(a, b, c, d, e, g, h, i)) }
        }
        #[inline(always)]
        fn load(src: &[Real], at: usize) -> Self {
            let src = &src[at..at + 8];
            // SAFETY: `src` holds 8 values (unaligned load); AVX-512F as
            // above.
            unsafe { Avx512Pack(_mm512_loadu_pd(src.as_ptr())) }
        }
        #[inline(always)]
        fn store(self, dst: &mut [Real], at: usize) {
            let dst = &mut dst[at..at + 8];
            // SAFETY: `dst` holds 8 values (unaligned store); AVX-512F as
            // above.
            unsafe { _mm512_storeu_pd(dst.as_mut_ptr(), self.0) }
        }
        #[inline(always)]
        fn lane(&self, l: usize) -> Real {
            self.to_array()[l]
        }
    }
}

/// A lane kernel as [`walk`] runs it: one body, [`group`](Self::group),
/// over `P::LANES` consecutive elements, generic over the pack. The
/// kernel's arguments live in the implementing struct.
pub(crate) trait LaneKernel {
    /// Run on the 4-lane `Avx2Pack` where the walk would take the 8-lane
    /// `Avx512Pack`: set by a kernel that measured slower at 8 lanes.
    const PIN_AVX2: bool = false;

    /// Elements `e0..e0 + P::LANES`.
    fn group<P: Pack>(&mut self, e0: usize);
}

/// Run `k` over `lo..hi` at the process-wide width ([`active`]) on the
/// ISA this host runs that width at ([`Isa::detect`]).
#[inline(always)]
pub(crate) fn walk<K: LaneKernel>(k: &mut K, lo: usize, hi: usize) {
    let width = active();
    // SAFETY: `Isa::detect` answers `Avx2` or `Avx512` only after
    // `is_x86_feature_detected!` held for their features on this CPU.
    unsafe { walk_at(width, Isa::detect(width), k, lo, hi) }
}

/// The width × ISA choice of every lane kernel, in one place: the
/// `Lanes<1>` [`tail`] at [`LaneWidth::W1`], [`groups`] of [`Lanes<W>`] at
/// the lane widths, at w4 on an AVX2 CPU the same groups on `Avx2Pack`
/// ([`walk_avx2`]), and at w8 on an AVX-512 CPU on `Avx512Pack`
/// ([`walk_avx512`]) or, for a kernel that pins it, on `Avx2Pack`.
///
/// # Safety
/// `isa` may be [`Isa::Avx2`] only on a CPU with AVX2, and [`Isa::Avx512`]
/// only on one with AVX2, AVX-512F and AVX-512DQ.
#[inline(always)]
unsafe fn walk_at<K: LaneKernel>(width: LaneWidth, isa: Isa, k: &mut K, lo: usize, hi: usize) {
    match (width, isa) {
        (LaneWidth::W1, _) => tail(k, lo, hi),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the CPU has AVX2 (this function's contract), the one
        // feature `walk_avx2` is compiled with.
        (LaneWidth::W4, Isa::Avx2) => unsafe { walk_avx2(k, lo, hi) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: an AVX-512 CPU has AVX2 too (this function's contract).
        (LaneWidth::W8, Isa::Avx512) if K::PIN_AVX2 => unsafe { walk_avx2(k, lo, hi) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: the CPU has AVX-512F and AVX-512DQ (this function's
        // contract), the features `walk_avx512` is compiled with.
        (LaneWidth::W8, Isa::Avx512) => unsafe { walk_avx512(k, lo, hi) },
        (LaneWidth::W4, _) => groups::<Lanes<4>, K>(k, lo, hi),
        (LaneWidth::W8, _) => groups::<Lanes<8>, K>(k, lo, hi),
    }
}

/// [`groups`] on `Avx2Pack`, compiled for AVX2: the kernel's `group` body
/// and every pack op inline here, one `ymm` instruction per op. The only
/// place an `Avx2Pack` is made.
///
/// # Safety
/// The CPU must have AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn walk_avx2<K: LaneKernel>(k: &mut K, lo: usize, hi: usize) {
    groups::<Avx2Pack, K>(k, lo, hi)
}

/// [`groups`] on `Avx512Pack`, compiled for AVX-512F/DQ: one `zmm`
/// instruction per op. The only place an `Avx512Pack` is made.
///
/// # Safety
/// The CPU must have AVX-512F and AVX-512DQ.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn walk_avx512<K: LaneKernel>(k: &mut K, lo: usize, hi: usize) {
    groups::<Avx512Pack, K>(k, lo, hi)
}

/// `lo..hi` in groups of `P::LANES` consecutive elements, then the ragged
/// tail.
#[inline(always)]
fn groups<P: Pack, K: LaneKernel>(k: &mut K, lo: usize, hi: usize) {
    let mut e = lo;
    while e + P::LANES <= hi {
        k.group::<P>(e);
        e += P::LANES;
    }
    if e < hi {
        tail(k, e, hi);
    }
}

/// Elements `lo..hi` one at a time on `Lanes<1>`, operation-identical to
/// the scalar reference: the ragged tail of every pack and the whole of
/// `W = 1`. Out of line, so each kernel has one baseline copy of its body
/// for this instead of one inlined into every pack's walk.
#[inline(never)]
fn tail<K: LaneKernel>(k: &mut K, lo: usize, hi: usize) {
    for e in lo..hi {
        k.group::<Lanes<1>>(e);
    }
}

/// One (width, ISA) leg of [`walk`], pinned for tests. Only [`Leg::all`]
/// makes one, so an x86 leg exists only where its ISA was detected.
#[cfg(test)]
#[derive(Copy, Clone, Debug)]
pub(crate) struct Leg(LaneWidth, Isa);

#[cfg(test)]
impl Leg {
    /// `Lanes<1>`, `Lanes<4>`, `Lanes<8>`, then `Avx2Pack` where this CPU
    /// has AVX2 and the AVX-512 walk where it has AVX-512F/DQ (a skip line
    /// for each that it lacks). A kernel that pins `Avx2Pack` runs it on
    /// the AVX-512 leg too.
    pub(crate) fn all() -> Vec<Leg> {
        let mut legs: Vec<Leg> = LaneWidth::ALL.map(|w| Leg(w, Isa::Baseline)).into();
        for (w, isa) in [(LaneWidth::W4, Isa::Avx2), (LaneWidth::W8, Isa::Avx512)] {
            if Isa::detect(w) == isa {
                legs.push(Leg(w, isa));
            } else {
                println!("skip: no {isa} on this host, the {w}/{isa} walk not run");
            }
        }
        legs
    }

    /// [`walk`] on this leg.
    pub(crate) fn walk<K: LaneKernel>(self, k: &mut K, lo: usize, hi: usize) {
        // SAFETY: `all` makes an x86 leg only after `Isa::detect` found its
        // ISA on this CPU.
        unsafe { walk_at(self.0, self.1, k, lo, hi) }
    }
}

#[cfg(test)]
impl std::fmt::Display for Leg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.0, self.1)
    }
}

/// The lane widths the kernels are instantiated at.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LaneWidth {
    /// Scalar reference mode (the ground truth).
    W1,
    /// 4 lanes (one AVX2 register).
    W4,
    /// 8 lanes (one AVX-512 register).
    W8,
}

impl LaneWidth {
    /// Every width, scalar first.
    pub const ALL: [LaneWidth; 3] = [Self::W1, Self::W4, Self::W8];

    /// The width a plain run uses on this host: [`active`]'s initial value
    /// and the `--simd` default. It is the widest width with a register
    /// pack of its own: w8 on an x86_64 CPU with AVX-512F/DQ (the kernels
    /// run on `Avx512Pack`, EOS on `Avx2Pack`), w4 everywhere else (on
    /// `Avx2Pack` with AVX2, [`Lanes<W>`] without). EXPERIMENTS.md ("AVX-512
    /// pack and row loads") has the measurements.
    pub fn native() -> LaneWidth {
        if Isa::detect(Self::W8) == Isa::Avx512 {
            Self::W8
        } else {
            Self::W4
        }
    }

    /// The element count per lane group.
    #[inline]
    pub const fn lanes(self) -> usize {
        match self {
            Self::W1 => 1,
            Self::W4 => 4,
            Self::W8 => 8,
        }
    }

    /// Inverse of [`lanes`](Self::lanes).
    pub fn from_lanes(n: usize) -> Option<Self> {
        match n {
            1 => Some(Self::W1),
            4 => Some(Self::W4),
            8 => Some(Self::W8),
            _ => None,
        }
    }
}

impl std::fmt::Display for LaneWidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::W1 => write!(f, "scalar"),
            Self::W4 => write!(f, "w4"),
            Self::W8 => write!(f, "w8"),
        }
    }
}

/// The `--simd` values: `scalar`, `w4`, `w8`.
impl std::str::FromStr for LaneWidth {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "scalar" => Ok(Self::W1),
            "w4" => Ok(Self::W4),
            "w8" => Ok(Self::W8),
            _ => Err("expected scalar|w4|w8".into()),
        }
    }
}

/// The instruction set a lane body is compiled for.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Isa {
    /// The build's target features (SSE2 on x86_64).
    Baseline,
    /// x86_64 AVX2, without `fma`: same IEEE operations, wider registers.
    Avx2,
    /// x86_64 AVX-512F and AVX-512DQ, without FMA: eight lanes per
    /// register.
    Avx512,
}

impl Isa {
    /// The ISA the kernel dispatchers run `width` at on this host, one per
    /// width: `Avx2` at w4 on a CPU with AVX2 (`Avx2Pack`, one `__m256d`
    /// per value), `Avx512` at w8 on a CPU with AVX2, AVX-512F and
    /// AVX-512DQ (`Avx512Pack`, one `__m512d`), `Baseline` otherwise.
    /// Scalar gains nothing from a wider ISA.
    #[inline]
    pub fn detect(width: LaneWidth) -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            match width {
                LaneWidth::W4 if has!("avx2") => return Isa::Avx2,
                LaneWidth::W8 if has!("avx2") && has!("avx512f") && has!("avx512dq") => {
                    return Isa::Avx512
                }
                _ => {}
            }
        }
        Isa::Baseline
    }
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Baseline => "baseline",
            Self::Avx2 => "avx2",
            Self::Avx512 => "avx512",
        })
    }
}

/// Process-global active width, encoded as the lane count; 0 until
/// [`set_active`] is first called, read as [`LaneWidth::native`].
static ACTIVE: AtomicU8 = AtomicU8::new(0);

/// Set the lane width every ported kernel dispatches to from now on.
/// Safe to call at any time: all widths produce bit-identical results, so
/// in-flight work cannot be perturbed — only its speed.
pub fn set_active(w: LaneWidth) {
    ACTIVE.store(w.lanes() as u8, Ordering::Relaxed);
}

/// The width the ported kernels currently dispatch to: the last
/// [`set_active`], or [`LaneWidth::native`] before any.
pub fn active() -> LaneWidth {
    LaneWidth::from_lanes(ACTIVE.load(Ordering::Relaxed) as usize).unwrap_or_else(LaneWidth::native)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lanes_arithmetic_is_elementwise() {
        let a = Lanes([1.0, 2.0, 3.0, 4.0]);
        let b = Lanes([0.5, 0.25, 2.0, -1.0]);
        assert_eq!((a + b).0, [1.5, 2.25, 5.0, 3.0]);
        assert_eq!((a - b).0, [0.5, 1.75, 1.0, 5.0]);
        assert_eq!((a * b).0, [0.5, 0.5, 6.0, -4.0]);
        assert_eq!((a / b).0, [2.0, 8.0, 1.5, -4.0]);
        assert_eq!((-a).0, [-1.0, -2.0, -3.0, -4.0]);
    }

    #[test]
    fn lanes_ops_match_scalar_bitwise() {
        // The core bit-identity property: each lane equals the scalar op,
        // NaNs included, also for signed zeros, subnormals, infinities and
        // division by zero.
        fn same(lane: Real, scalar: Real) -> bool {
            lane.to_bits() == scalar.to_bits()
        }
        let xs = [1.75, -0.3, 1e-40, 7.7, -0.0];
        let ys = [3.25, 0.7, 1e20, -0.1, 2.0];
        let big = [Real::INFINITY, 4.9e-324, -2.5, 1.0e308, -1.0e-310];
        for (xs, ys) in [(xs, ys), (ys, xs), (big, xs), (xs, big)] {
            let a = Lanes(xs);
            let b = Lanes(ys);
            for i in 0..5 {
                assert!(same((a + b).0[i], xs[i] + ys[i]), "{} + {}", xs[i], ys[i]);
                assert!(same((a - b).0[i], xs[i] - ys[i]), "{} - {}", xs[i], ys[i]);
                assert!(same((a * b).0[i], xs[i] * ys[i]), "{} * {}", xs[i], ys[i]);
                assert!(same((a / b).0[i], xs[i] / ys[i]), "{} / {}", xs[i], ys[i]);
                assert!(same(a.sqrt().0[i], xs[i].sqrt()), "sqrt {}", xs[i]);
                assert!(same(a.cbrt().0[i], xs[i].cbrt()), "cbrt {}", xs[i]);
                assert!(same(
                    a.select_le(b, a, b).0[i],
                    SimdReal::select_le(xs[i], ys[i], xs[i], ys[i])
                ));
            }
        }
    }

    #[test]
    fn selects_cover_all_comparisons() {
        let a = Lanes([1.0, 2.0]);
        let b = Lanes([2.0, 2.0]);
        let t = Lanes([10.0, 10.0]);
        let f = Lanes([20.0, 20.0]);
        assert_eq!(a.select_lt(b, t, f).0, [10.0, 20.0]);
        assert_eq!(a.select_le(b, t, f).0, [10.0, 10.0]);
        assert_eq!(a.select_gt(b, t, f).0, [20.0, 20.0]);
        assert_eq!(a.select_ge(b, t, f).0, [20.0, 10.0]);
    }

    #[test]
    fn load_store_gather_roundtrip() {
        let src = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let l = Lanes::<4>::load(&src, 1);
        assert_eq!(l.0, [2.0, 3.0, 4.0, 5.0]);
        let mut dst = [0.0; 6];
        l.store(&mut dst, 2);
        assert_eq!(dst, [0.0, 0.0, 2.0, 3.0, 4.0, 5.0]);
        let g = Lanes::<3>::gather(|i| src[2 * i]);
        assert_eq!(g.0, [1.0, 3.0, 5.0]);
        assert_eq!(g.lane(2), 5.0);
    }

    /// Every [`SimdReal`] operation on one pair of values: the twelve of
    /// `simd_ops` in `tests/simd_equivalence.rs`.
    #[cfg(target_arch = "x86_64")]
    #[inline(always)]
    fn ops<V: SimdReal>(a: V, b: V) -> [V; 12] {
        [
            a + b,
            a - b,
            a * b,
            a / b,
            -a,
            a.sqrt(),
            a.cbrt(),
            a.abs(),
            a.select_lt(b, a, b),
            a.select_le(b, a, b),
            a.select_gt(b, a, b),
            a.select_ge(b, a, b),
        ]
    }

    /// [`ops`] on one AVX2 pack per operand, compiled as the AVX2 walk
    /// compiles the pack ops it inlines; lanes read back with `store`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn avx2_ops(a: [Real; 4], b: [Real; 4]) -> [[Real; 4]; 12] {
        let packed = ops(Avx2Pack::load(&a, 0), Avx2Pack::gather(|l| b[l]));
        let mut out = [[0.0; 4]; 12];
        for (o, p) in out.iter_mut().zip(packed) {
            p.store(o, 0);
        }
        out
    }

    /// [`avx2_ops`] on the AVX-512 pack, compiled as the AVX-512 walk is.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn avx512_ops(a: [Real; 8], b: [Real; 8]) -> [[Real; 8]; 12] {
        let packed = ops(Avx512Pack::load(&a, 0), Avx512Pack::gather(|l| b[l]));
        let mut out = [[0.0; 8]; 12];
        for (o, p) in out.iter_mut().zip(packed) {
            p.store(o, 0);
        }
        out
    }

    /// Each of [`ops`] through `packed`, `L` lanes at a time, against the
    /// scalar op, bit for bit, on every ordered pair of NaN, both
    /// infinities, both zeros, subnormals of both signs, the largest finite
    /// values and a few ordinary ones: so each select also sees equal
    /// operands (±0 against each other too) and every invalid operation
    /// (∞ − ∞, 0 · ∞, 0 / 0, √−1) makes its fresh NaN.
    #[cfg(target_arch = "x86_64")]
    fn pack_ops_match_scalar<const L: usize>(
        packed: impl Fn([Real; L], [Real; L]) -> [[Real; L]; 12],
    ) {
        let vals = [
            Real::NAN,
            Real::INFINITY,
            -Real::INFINITY,
            0.0,
            -0.0,
            4.9e-324,
            -2.2e-308,
            Real::MAX,
            -Real::MAX,
            1.5,
            -2.5,
            27.0,
        ];
        let pairs: Vec<(Real, Real)> = vals
            .iter()
            .flat_map(|&x| vals.iter().map(move |&y| (x, y)))
            .collect();
        // 144 pairs: whole groups at L = 4 and L = 8.
        for group in pairs.chunks(L) {
            // black_box: compare run-time arithmetic, not LLVM's folding.
            let a = std::hint::black_box(std::array::from_fn(|l| group[l].0));
            let b = std::hint::black_box(std::array::from_fn(|l| group[l].1));
            let packed = packed(a, b);
            for (l, &(x, y)) in group.iter().enumerate() {
                let (x, y) = std::hint::black_box((x, y));
                for (op, scalar) in ops(x, y).into_iter().enumerate() {
                    assert_eq!(
                        packed[op][l].to_bits(),
                        scalar.to_bits(),
                        "{L} lanes, op {op} on ({x:e}, {y:e}): {:e} vs {scalar:e}",
                        packed[op][l]
                    );
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_pack_ops_match_scalar_bitwise() {
        if Isa::detect(LaneWidth::W4) != Isa::Avx2 {
            println!("skip: no AVX2 on this host, the AVX2 pack ops not run");
            return;
        }
        // SAFETY: AVX2 was detected on this CPU above.
        pack_ops_match_scalar(|a, b| unsafe { avx2_ops(a, b) });
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_pack_ops_match_scalar_bitwise() {
        if Isa::detect(LaneWidth::W8) != Isa::Avx512 {
            println!("skip: no AVX-512F/DQ on this host, the AVX-512 pack ops not run");
            return;
        }
        // SAFETY: AVX-512F and AVX-512DQ were detected on this CPU above.
        pack_ops_match_scalar(|a, b| unsafe { avx512_ops(a, b) });
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_pack_load_store_gather_lane_roundtrip() {
        if Isa::detect(LaneWidth::W4) != Isa::Avx2 {
            println!("skip: no AVX2 on this host, the AVX2 pack not built");
            return;
        }
        /// The four pack ways in and out of memory, under AVX2.
        #[target_feature(enable = "avx2")]
        fn roundtrip(src: &[Real; 6]) -> ([Real; 6], [Real; 4]) {
            let l = Avx2Pack::load(src, 1);
            let mut dst = [0.0; 6];
            l.store(&mut dst, 2);
            let g = Avx2Pack::gather(|i| src[5 - i]);
            (dst, std::array::from_fn(|i| g.lane(i)))
        }
        // SAFETY: AVX2 was detected on this CPU above.
        let (dst, lanes) = unsafe { roundtrip(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]) };
        assert_eq!(dst, [0.0, 0.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(lanes, [6.0, 5.0, 4.0, 3.0]);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_pack_load_store_gather_lane_roundtrip() {
        if Isa::detect(LaneWidth::W8) != Isa::Avx512 {
            println!("skip: no AVX-512F/DQ on this host, the AVX-512 pack not built");
            return;
        }
        /// The four pack ways in and out of memory, under AVX-512F/DQ.
        #[target_feature(enable = "avx512f,avx512dq")]
        fn roundtrip(src: &[Real; 10]) -> ([Real; 10], [Real; 8]) {
            let l = Avx512Pack::load(src, 1);
            let mut dst = [0.0; 10];
            l.store(&mut dst, 2);
            let g = Avx512Pack::gather(|i| src[9 - i]);
            (dst, std::array::from_fn(|i| g.lane(i)))
        }
        let src = std::array::from_fn(|i| (i + 1) as Real);
        // SAFETY: AVX-512F and AVX-512DQ were detected on this CPU above.
        let (dst, lanes) = unsafe { roundtrip(&src) };
        assert_eq!(dst, [0.0, 0.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
        assert_eq!(lanes, [10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0]);
    }

    /// Records every group the walk hands it as `(first element, lanes,
    /// pack type)`; `PIN` is its [`LaneKernel::PIN_AVX2`].
    struct Visits<const PIN: bool>(Vec<(usize, usize, &'static str)>);

    impl<const PIN: bool> LaneKernel for Visits<PIN> {
        const PIN_AVX2: bool = PIN;
        fn group<P: Pack>(&mut self, e0: usize) {
            let pack = std::any::type_name::<P>().rsplit("::").next().unwrap_or("");
            self.0.push((e0, P::LANES, pack));
        }
    }

    /// The pack each (width, ISA, kernel pin) leg runs its whole groups
    /// on, and its lane count.
    fn pack_of(leg: Leg, pin: bool) -> (&'static str, usize) {
        match (leg.0, leg.1, pin) {
            (LaneWidth::W1, Isa::Baseline, _) => ("Lanes<1>", 1),
            (LaneWidth::W4, Isa::Baseline, _) => ("Lanes<4>", 4),
            (LaneWidth::W8, Isa::Baseline, _) => ("Lanes<8>", 8),
            (LaneWidth::W4, Isa::Avx2, _) => ("Avx2Pack", 4),
            (LaneWidth::W8, Isa::Avx512, false) => ("Avx512Pack", 8),
            (LaneWidth::W8, Isa::Avx512, true) => ("Avx2Pack", 4),
            _ => panic!("{leg}: no such leg"),
        }
    }

    /// `lo..lo + len` on `leg`: whole groups of its pack's width on that
    /// pack, then one-lane `Lanes<1>` tail steps.
    fn expect_visits(
        leg: Leg,
        pin: bool,
        lo: usize,
        len: usize,
    ) -> Vec<(usize, usize, &'static str)> {
        let (pack, lanes) = pack_of(leg, pin);
        let whole = if lanes > 1 { len / lanes } else { 0 };
        (0..whole)
            .map(|g| (lo + g * lanes, lanes, pack))
            .chain((lo + whole * lanes..lo + len).map(|e| (e, 1, "Lanes<1>")))
            .collect()
    }

    #[test]
    fn walk_visits_every_index_once_on_every_leg() {
        let lo = 5;
        for leg in Leg::all() {
            for len in 0..=17 {
                let mut k = Visits::<false>(Vec::new());
                leg.walk(&mut k, lo, lo + len);
                assert_eq!(
                    k.0,
                    expect_visits(leg, false, lo, len),
                    "{leg}, {len} from {lo}"
                );
                let mut k = Visits::<true>(Vec::new());
                leg.walk(&mut k, lo, lo + len);
                assert_eq!(
                    k.0,
                    expect_visits(leg, true, lo, len),
                    "{leg} pinned, {len} from {lo}"
                );
            }
        }
    }

    #[test]
    fn each_width_isa_and_pin_runs_its_pack() {
        // The table of `pack_of`, leg by leg on this host: an x86 pack only
        // where its ISA was detected (`Leg::all` prints a skip line for the
        // others), and the AVX2 pack for a pinned kernel on the AVX-512 leg.
        for leg in Leg::all() {
            let mut k = Visits::<false>(Vec::new());
            leg.walk(&mut k, 0, 8);
            let mut pinned = Visits::<true>(Vec::new());
            leg.walk(&mut pinned, 0, 8);
            for (pin, first) in [(false, k.0[0]), (true, pinned.0[0])] {
                let (pack, lanes) = pack_of(leg, pin);
                assert_eq!(first, (0, lanes, pack), "{leg}, pinned: {pin}");
            }
        }
        // One ISA per width: scalar never runs an x86 pack, w4 never the
        // AVX-512 one and w8 never the AVX2 one unpinned.
        assert_eq!(Isa::detect(LaneWidth::W1), Isa::Baseline);
        assert_ne!(Isa::detect(LaneWidth::W4), Isa::Avx512);
        assert_ne!(Isa::detect(LaneWidth::W8), Isa::Avx2);
        #[cfg(not(target_arch = "x86_64"))]
        for w in LaneWidth::ALL {
            assert_eq!(Isa::detect(w), Isa::Baseline);
        }
        // The platform's default width is the one with the widest pack.
        let native = if Isa::detect(LaneWidth::W8) == Isa::Avx512 {
            LaneWidth::W8
        } else {
            LaneWidth::W4
        };
        assert_eq!(LaneWidth::native(), native);
        assert_eq!(format!("{}/{}", LaneWidth::W8, Isa::Avx512), "w8/avx512");
        assert_eq!(Isa::Baseline.to_string(), "baseline");
    }

    #[test]
    fn width_global_roundtrip() {
        // Don't disturb other tests: restore the prior width.
        let prior = active();
        for w in LaneWidth::ALL {
            set_active(w);
            assert_eq!(active(), w);
            assert_eq!(LaneWidth::from_lanes(w.lanes()), Some(w));
        }
        set_active(prior);
        assert_eq!(LaneWidth::from_lanes(3), None);
    }
}
