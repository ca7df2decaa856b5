//! Explicit-width SIMD lane engine for the hot element kernels.
//!
//! Stable-Rust, zero-dependency data parallelism: [`Lanes<W>`] packs `W`
//! independent elements into one value and implements every arithmetic op
//! *elementwise*, so a lane-blocked kernel performs, per element, exactly
//! the same IEEE-754 operation sequence as the scalar loop — results are
//! bit-identical at every width (no reassociation, no horizontal
//! reductions). How the fixed-length `[f64; W]` loops become instructions
//! is the compiler's business and correctness never depends on it — but
//! speed does: built for baseline x86_64 (SSE2) LLVM leaves most of the
//! kinematics and EOS lane bodies scalar, so the four hot kernels compile
//! their `Lanes<4>` body a second time under
//! `#[target_feature(enable = "avx2")]` ([`Isa::Avx2`]; no `fma`, so the
//! operation sequence and every bit stay the same) and [`dispatch!`] runs
//! that copy when the CPU has AVX2. The choice is made from the platform
//! alone ([`Isa::detect`]); there is no flag for it.
//!
//! The shared per-element math of each ported kernel is written once,
//! generic over [`SimdReal`], and instantiated with `f64` (the `W = 1`
//! reference mode, also used for ragged tails) and with `Lanes<2|4|8>`.
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
//! as plain `W`-element groups ([`lane_groups!`]) — there is no cache
//! blocking layer to tune.
//!
//! Inlining is load-bearing here: a helper LLVM declines to inline into an
//! AVX2 entry point stays baseline code and the entry degenerates into a
//! list of calls. The kernels' helper chain (`volume.rs`, `shape.rs`, the
//! `*_lane_group` bodies) is therefore `#[inline(always)]`. The lane
//! operations in this module are not: each is a few instructions once
//! optimised, so the cost model always takes them, whereas forcing them
//! copies thousands of unoptimised `0..W` loops into each kernel and LLVM's
//! loop passes then take 30× as long over the crate (3 s → 90 s).

// The elementwise loops index several arrays at once; iterator zips would
// obscure the per-lane operation.
#![allow(clippy::needless_range_loop)]

use crate::types::Real;
use std::ops::{Add, Div, Mul, Neg, Sub};
use std::sync::atomic::{AtomicU8, Ordering};

/// `W` elements processed in lockstep. `W` must be a power of two ≤ 8 in
/// practice (2, 4, 8); `Lanes<1>` is legal and equivalent to `f64`.
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

impl<const W: usize> Lanes<W> {
    /// Load `W` consecutive values from `src[at..at + W]`.
    #[inline]
    pub fn load(src: &[Real], at: usize) -> Self {
        let mut out = [0.0; W];
        out.copy_from_slice(&src[at..at + W]);
        Lanes(out)
    }

    /// Store the lanes to `dst[at..at + W]`.
    #[inline]
    pub fn store(self, dst: &mut [Real], at: usize) {
        dst[at..at + W].copy_from_slice(&self.0);
    }

    /// Build from a per-lane function (the gather primitive).
    #[inline]
    pub fn gather(mut f: impl FnMut(usize) -> Real) -> Self {
        let mut out = [0.0; W];
        for (l, o) in out.iter_mut().enumerate() {
            *o = f(l);
        }
        Lanes(out)
    }
}

/// The value abstraction the generic kernel bodies are written against:
/// either a scalar `f64` or a [`Lanes<W>`] pack. Every operation is
/// elementwise, so `f64` and any `Lanes<W>` produce bit-identical
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

/// Walk `$lo..$hi` in groups of `$w` consecutive elements through
/// `$group::<$w>($args)` with `$e` bound to each group's first element,
/// then hand the ragged tail `$e..$hi` to `$tail($args, $hi)`. `$tail` is
/// the kernel's `W = 1` loop (operation-identical to the scalar reference)
/// behind `#[inline(never)]`, and at `$w == 1` it is the whole walk: one
/// baseline copy of the scalar body per kernel instead of one inlined into
/// every width × ISA instantiation.
macro_rules! lane_groups {
    ($w:ident, $lo:expr, $hi:expr, |$e:ident| $group:ident / $tail:ident($($arg:expr),* $(,)?)) => {{
        let hi = $hi;
        let mut $e = $lo;
        while $w > 1 && $e + $w <= hi {
            $group::<$w>($($arg),*);
            $e += $w;
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
            (LaneWidth::W2, _) => $lanes::<2>($($arg),*),
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
    /// 2 lanes (one SSE2 register).
    W2,
    /// 4 lanes (one AVX2 register).
    W4,
    /// 8 lanes (one AVX-512 register, or two AVX2).
    W8,
}

impl LaneWidth {
    /// Every width, scalar first.
    pub const ALL: [LaneWidth; 4] = [Self::W1, Self::W2, Self::W4, Self::W8];

    /// The width a plain run uses: [`ACTIVE`]'s initial value and the
    /// `--simd` default. Measured in release (EXPERIMENTS.md): w4 wins or
    /// ties on every lane kernel; w2 and w8 are within a few percent.
    pub const DEFAULT: LaneWidth = Self::W4;

    /// The element count per lane group.
    #[inline]
    pub const fn lanes(self) -> usize {
        match self {
            Self::W1 => 1,
            Self::W2 => 2,
            Self::W4 => 4,
            Self::W8 => 8,
        }
    }

    /// Inverse of [`lanes`](Self::lanes).
    pub fn from_lanes(n: usize) -> Option<Self> {
        match n {
            1 => Some(Self::W1),
            2 => Some(Self::W2),
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
            Self::W2 => write!(f, "w2"),
            Self::W4 => write!(f, "w4"),
            Self::W8 => write!(f, "w8"),
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
    /// bodies exist at w4 only: scalar gains nothing from the wider ISA and
    /// w8 loses to w4 under it (EXPERIMENTS.md), and each copy costs text.
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
        for w in [LaneWidth::W1, LaneWidth::W2, LaneWidth::W8] {
            assert_eq!(Isa::detect(w), Isa::Baseline, "{w}");
        }
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(Isa::detect(LaneWidth::W4), Isa::Baseline);
        assert_eq!(format!("{}/{}", LaneWidth::W4, Isa::Avx2), "w4/avx2");
        assert_eq!(Isa::Baseline.to_string(), "baseline");
    }
}
