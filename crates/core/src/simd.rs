//! Explicit-width SIMD lane engine for the hot element kernels.
//!
//! Stable-Rust, zero-dependency data parallelism: a *pack* holds `LANES`
//! independent elements and implements every arithmetic op
//! *elementwise*, so a lane-blocked kernel performs, per element, exactly
//! the same IEEE-754 operation sequence as the scalar loop — results are
//! bit-identical at every width (no reassociation, no horizontal
//! reductions, no FMA).
//!
//! Two packs carry the kernels:
//!
//! - [`Lanes<W>`], the portable one: an `[f64; W]` whose ops are
//!   `for i in 0..W` loops. How those loops become instructions is the
//!   compiler's business. Built for baseline x86_64 (SSE2), LLVM's SLP
//!   vectoriser packs some of them and leaves most scalar; that is what
//!   `--simd w8`, w4 on a CPU without AVX2, and every other
//!   architecture run. Its ops are `#[inline]`, not `#[inline(always)]`:
//!   each is a few instructions once optimised, so the cost model always
//!   takes them, whereas forcing them copies thousands of unoptimised
//!   `0..W` loops into each kernel and LLVM's loop passes then take 20×
//!   as long over the crate (3 s → 68 s, EXPERIMENTS.md).
//! - `Avx2Pack` (x86_64 only, crate-private): one `__m256d`, every op a
//!   single `#[inline(always)]` intrinsic — `_mm256_{add,sub,mul,div,
//!   sqrt}_pd`, a sign-bit `xor`/`andnot` for `neg`/`abs`, ordered-quiet
//!   compares (`LT_OQ`, `LE_OQ`, `GT_OQ`, `GE_OQ`, false on NaN like the
//!   scalar operators) with `blendv` for the selects, and libm `cbrt` per
//!   lane. The four hot kernels run their one body on it in their
//!   `#[target_feature(enable = "avx2")]` entries (`*_avx2`), and
//!   `dispatch!` calls those at w4 when the CPU has AVX2 ([`Isa::Avx2`]).
//!   No FMA is enabled or used, so each lane rounds exactly as the scalar
//!   SSE2 operation does. The choice is made from the platform alone
//!   ([`Isa::detect`]); there is no flag for it.
//!
//! Soundness rule: `Avx2Pack`'s safe methods execute AVX instructions, so
//! the type is crate-private and only constructed inside the `*_avx2`
//! entries, which `dispatch!` reaches only after
//! `is_x86_feature_detected!("avx2")` held. No safe public path reaches it.
//!
//! The shared per-element math of each ported kernel is written once,
//! generic over [`SimdReal`], and each kernel's `*_lane_group` body once,
//! generic over the crate's pack trait (`gather`, `load`, `store`,
//! `lane`). They are instantiated with `Lanes<1>` (the ragged tails and
//! the `W = 1` reference mode), `Lanes<4|8>` and `Avx2Pack`.
//! Divergent branches are handled with per-lane selects
//! ([`SimdReal::select_lt`] etc.): both sides are computed and the untaken
//! lane's value discarded, which preserves bit-identity because the taken
//! side's operation sequence is unchanged.
//!
//! The active width is a process-global ([`set_active`]/[`active`],
//! initially [`LaneWidth::DEFAULT`]) that the kernel entry points dispatch
//! on internally, so driver call sites need no signature changes and every
//! driver (serial, OpenMP-style, task, multi-domain) picks up `--simd`
//! uniformly. Because all widths are bit-identical, concurrently running
//! tests that flip the global cannot change any result.
//!
//! Every lane kernel is a single pass per element, so a chunk is walked
//! as plain `LANES`-element groups (`lane_groups!`) — there is no cache
//! blocking layer to tune.
//!
//! Inlining is load-bearing here: a helper LLVM declines to inline into an
//! AVX2 entry point is compiled as baseline code — and for `Avx2Pack` a
//! call would cross a target-feature boundary — so the kernels' helper
//! chain (`volume.rs`, `shape.rs`, the `*_lane_group` bodies) and every
//! `Avx2Pack` op are `#[inline(always)]`. `scripts/check.sh` fails if a
//! pack op or pack-trait method is left out of line in the release binary.

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

/// A lane pack the kernels' `*_lane_group` bodies walk memory with: the
/// [`SimdReal`] arithmetic plus the four ways a group meets the arrays.
/// [`Lanes<W>`] is the portable pack (every baseline width and the `W = 1`
/// tails); on x86_64 [`Avx2Pack`] is the one the `*_avx2` entries run.
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
pub(crate) use avx2::Avx2Pack;

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{Pack, SimdReal};
    use crate::types::Real;
    use std::arch::x86_64::*;
    use std::ops::{Add, Div, Mul, Neg, Sub};

    /// Four `f64` lanes in one AVX register, for the four `*_avx2` kernel
    /// entries. Every operation is one `#[inline(always)]` intrinsic, so
    /// it is compiled inside the `#[target_feature(enable = "avx2")]`
    /// entry that uses it, never as baseline code.
    ///
    /// Soundness: the operations execute AVX instructions with no check of
    /// their own, so a value of this type may only exist on a CPU with
    /// AVX2. It is crate-private and constructed only inside the `*_avx2`
    /// entries, which `simd::dispatch!` calls after `Isa::detect` saw
    /// `is_x86_feature_detected!("avx2")`; no safe public path reaches it.
    /// `scripts/check.sh` fails if the type is named in any file but this
    /// one and the four kernels'.
    ///
    /// Bit identity with `f64`: `vaddpd`/`vsubpd`/`vmulpd`/`vdivpd`/
    /// `vsqrtpd` are the IEEE-754 operations of their SSE2 scalar forms,
    /// lane by lane (no FMA, so no fused rounding); `neg` and `abs` only
    /// touch the sign bit, as `-x` and `f64::abs` do; the selects compare
    /// with the ordered-quiet predicates, false on NaN like the scalar
    /// `<`/`<=`/`>`/`>=`; `cbrt` calls libm's per lane.
    #[derive(Copy, Clone)]
    pub(crate) struct Avx2Pack(__m256d);

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

    macro_rules! pack_binop {
        ($trait:ident, $method:ident, $intrinsic:ident) => {
            impl $trait for Avx2Pack {
                type Output = Self;
                #[inline(always)]
                fn $method(self, rhs: Self) -> Self {
                    // SAFETY: a value of this type exists only on an AVX2
                    // CPU (type docs).
                    unsafe { Avx2Pack($intrinsic(self.0, rhs.0)) }
                }
            }
        };
    }
    pack_binop!(Add, add, _mm256_add_pd);
    pack_binop!(Sub, sub, _mm256_sub_pd);
    pack_binop!(Mul, mul, _mm256_mul_pd);
    pack_binop!(Div, div, _mm256_div_pd);

    impl Neg for Avx2Pack {
        type Output = Self;
        #[inline(always)]
        fn neg(self) -> Self {
            // SAFETY: as for the binary ops.
            unsafe { Avx2Pack(_mm256_xor_pd(self.0, _mm256_set1_pd(-0.0))) }
        }
    }

    impl SimdReal for Avx2Pack {
        const LANES: usize = 4;
        #[inline(always)]
        fn splat(v: Real) -> Self {
            // SAFETY: called only where a pack may exist (type docs).
            unsafe { Avx2Pack(_mm256_set1_pd(v)) }
        }
        #[inline(always)]
        fn sqrt(self) -> Self {
            // SAFETY: as for the binary ops.
            unsafe { Avx2Pack(_mm256_sqrt_pd(self.0)) }
        }
        #[inline(always)]
        fn cbrt(self) -> Self {
            let a = self.to_array();
            Self::gather(|l| a[l].cbrt())
        }
        #[inline(always)]
        fn abs(self) -> Self {
            // SAFETY: as for the binary ops.
            unsafe { Avx2Pack(_mm256_andnot_pd(_mm256_set1_pd(-0.0), self.0)) }
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
}

/// Walk `$lo..$hi` in groups of `$p::LANES` consecutive elements through
/// `$group::<$p>($args)` with `$e` bound to each group's first element,
/// then hand the ragged tail `$e..$hi` to `$tail($args, $hi)`. `$tail` is
/// the kernel's `Lanes<1>` loop (operation-identical to the scalar
/// reference) behind `#[inline(never)]`, and for a one-lane pack it is the
/// whole walk: one baseline copy of the scalar body per kernel instead of
/// one inlined into every pack instantiation.
macro_rules! lane_groups {
    ($p:ty, $lo:expr, $hi:expr, |$e:ident| $group:ident / $tail:ident($($arg:expr),* $(,)?)) => {{
        let w = <$p as $crate::simd::SimdReal>::LANES;
        let hi = $hi;
        let mut $e = $lo;
        while w > 1 && $e + w <= hi {
            $group::<$p>($($arg),*);
            $e += w;
        }
        if $e < hi {
            $tail($($arg),*, hi);
        }
    }};
}
pub(crate) use lane_groups;

/// The width × ISA choice of a lane kernel's entry point, in one place:
/// `$scalar` at [`LaneWidth::W1`], `$lanes::<W>($args)` at the lane widths,
/// and at [`LaneWidth::W4`] on a CPU with AVX2 the `$avx2($args)` copy of
/// the same `Lanes<4>` body.
macro_rules! dispatch {
    ($lanes:ident / $avx2:ident($($arg:expr),* $(,)?), scalar: $scalar:expr) => {{
        use $crate::simd::{Isa, LaneWidth};
        let width = $crate::simd::active();
        match (width, Isa::detect(width)) {
            (LaneWidth::W1, _) => $scalar,
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Isa::detect` answers `Avx2` only after
            // `is_x86_feature_detected!("avx2")` held on this CPU, and AVX2
            // is the one feature `$avx2` is compiled with.
            (LaneWidth::W4, Isa::Avx2) => unsafe { $avx2($($arg),*) },
            (LaneWidth::W4, _) => $lanes::<4>($($arg),*),
            (LaneWidth::W8, _) => $lanes::<8>($($arg),*),
        }
    }};
}
pub(crate) use dispatch;

/// The lane widths the kernels are instantiated at.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum LaneWidth {
    /// Scalar reference mode (the ground truth).
    W1,
    /// 4 lanes (one AVX2 register).
    W4,
    /// 8 lanes (one AVX-512 register, or two AVX2).
    W8,
}

impl LaneWidth {
    /// Every width, scalar first.
    pub const ALL: [LaneWidth; 3] = [Self::W1, Self::W4, Self::W8];

    /// The width a plain run uses: [`active`]'s initial value and the
    /// `--simd` default. On an x86_64 CPU with AVX2 it is the only width
    /// whose kernels run on `__m256d` registers (`Avx2Pack`); w8 runs the
    /// portable [`Lanes<W>`] body and is slower than w4 there by the gap
    /// recorded in EXPERIMENTS.md ("Explicit AVX2 packs"). Without AVX2
    /// both run [`Lanes<W>`] and measured within a few percent.
    pub const DEFAULT: LaneWidth = Self::W4;

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
}

impl Isa {
    /// The ISA the kernel dispatchers run `width` at on this host. AVX2
    /// bodies exist at w4 only: they run the kernels on `Avx2Pack`, one
    /// `__m256d` per value, which is four lanes wide. Scalar gains nothing
    /// from the wider ISA, w8 stays on the portable [`Lanes<W>`] body, and
    /// each further copy would cost text.
    #[inline]
    pub fn detect(width: LaneWidth) -> Isa {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::arch::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        if width == LaneWidth::W4 && avx2 {
            Isa::Avx2
        } else {
            Isa::Baseline
        }
    }
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Baseline => "baseline",
            Self::Avx2 => "avx2",
        })
    }
}

/// Process-global active width, encoded as the lane count.
static ACTIVE: AtomicU8 = AtomicU8::new(LaneWidth::DEFAULT.lanes() as u8);

/// Set the lane width every ported kernel dispatches to from now on.
/// Safe to call at any time: all widths produce bit-identical results, so
/// in-flight work cannot be perturbed — only its speed.
pub fn set_active(w: LaneWidth) {
    ACTIVE.store(w.lanes() as u8, Ordering::Relaxed);
}

/// The width the ported kernels currently dispatch to.
pub fn active() -> LaneWidth {
    LaneWidth::from_lanes(ACTIVE.load(Ordering::Relaxed) as usize).unwrap_or(LaneWidth::W1)
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

    /// [`ops`] on one AVX2 pack per operand, compiled as the `*_avx2`
    /// kernels compile the pack ops they inline; lanes read back with
    /// `store`.
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

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_pack_ops_match_scalar_bitwise() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            println!("skip: no AVX2 on this host, the AVX2 pack ops not run");
            return;
        }
        // NaN, both infinities, both zeros, subnormals of both signs, the
        // largest finite values and a few ordinary ones. Every ordered pair
        // is tried, so each select also sees equal operands (±0 against
        // each other too) and every invalid operation (∞ − ∞, 0 · ∞, 0 / 0,
        // √−1) makes its fresh NaN.
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
        for group in pairs.chunks(4) {
            // black_box: compare run-time arithmetic, not LLVM's folding.
            let a = std::hint::black_box(std::array::from_fn(|l| group[l].0));
            let b = std::hint::black_box(std::array::from_fn(|l| group[l].1));
            // SAFETY: AVX2 was detected on this CPU above.
            let packed = unsafe { avx2_ops(a, b) };
            for (l, &(x, y)) in group.iter().enumerate() {
                let (x, y) = std::hint::black_box((x, y));
                for (op, scalar) in ops(x, y).into_iter().enumerate() {
                    assert_eq!(
                        packed[op][l].to_bits(),
                        scalar.to_bits(),
                        "op {op} on ({x:e}, {y:e}): {:e} vs {scalar:e}",
                        packed[op][l]
                    );
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_pack_load_store_gather_lane_roundtrip() {
        if !std::arch::is_x86_feature_detected!("avx2") {
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
            (dst, [g.lane(0), g.lane(1), g.lane(2), g.lane(3)])
        }
        // SAFETY: AVX2 was detected on this CPU above.
        let (dst, lanes) = unsafe { roundtrip(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]) };
        assert_eq!(dst, [0.0, 0.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(lanes, [6.0, 5.0, 4.0, 3.0]);
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

    #[test]
    fn only_w4_ever_runs_an_avx2_body() {
        for w in [LaneWidth::W1, LaneWidth::W8] {
            assert_eq!(Isa::detect(w), Isa::Baseline, "{w}");
        }
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(Isa::detect(LaneWidth::W4), Isa::Baseline);
        assert_eq!(format!("{}/{}", LaneWidth::W4, Isa::Avx2), "w4/avx2");
        assert_eq!(Isa::Baseline.to_string(), "baseline");
    }
}
