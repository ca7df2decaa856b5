//! Bitwise scalar-vs-lane equivalence through the public lane API.
//!
//! The per-kernel matrix — every (pack, ISA) leg of the lane walk against
//! each kernel's reference — needs the crate-private walk, so it lives in
//! the kernels' unit tests (`kernels::{stress, hourglass, kinematics,
//! monoq, eos}::tests`, `simd::tests`). Here: the public `Lanes<W>` ops on
//! non-finite inputs, and a public dispatcher following the process-wide
//! width, compared with `f64::to_bits`, not approximate equality.

use lulesh_core::kernels::stress;
use lulesh_core::simd::{self, LaneWidth, Lanes, SimdReal};
use lulesh_core::types::Real;
use lulesh_core::Domain;
use parutil::Chunk;

fn assert_bits_eq(a: &[Real], b: &[Real], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for i in 0..a.len() {
        assert_eq!(
            a[i].to_bits(),
            b[i].to_bits(),
            "{what}[{i}]: {} vs {}",
            a[i],
            b[i]
        );
    }
}

// ------------------------------------------------------------- lane ops --

/// Every `SimdReal` operation on one pair of values.
#[inline(always)]
fn simd_ops<V: SimdReal>(a: V, b: V) -> [V; 12] {
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

/// The portable `Lanes<4>` ops, as the baseline w4 body runs them (also the
/// fallback for `--simd w4` on a CPU without AVX2). The x86 walks run the
/// crate-private AVX2 and AVX-512 packs instead, whose ops are checked the
/// same way by `simd::tests::avx{2,512}_pack_ops_match_scalar_bitwise`;
/// `Lanes<4>` compiled under AVX2 is no kernel's code, so it is not tested
/// here.
#[test]
fn lane_ops_match_scalar_bitwise_on_non_finite_inputs() {
    // NaN (one operand at a time: which payload survives NaN ∘ NaN is not
    // defined), infinities of both signs, signed zeros, a subnormal, and
    // the invalid operations ∞ − ∞, 0 · ∞, 0 / 0, √−1 that make fresh NaNs.
    let inf = Real::INFINITY;
    let xs = [Real::NAN, inf, -inf, 0.0, -0.0, 4.9e-324, -1.0, 2.5];
    let ys = [1.5, inf, inf, inf, 0.0, -0.0, Real::NAN, -inf];
    for (xs, ys) in [(xs, ys), (ys, xs)] {
        for g in [0, 4] {
            // black_box: compare run-time arithmetic, not LLVM's folding.
            let lane =
                |v: &[Real; 8]| Lanes(std::hint::black_box([v[g], v[g + 1], v[g + 2], v[g + 3]]));
            let packed = simd_ops(lane(&xs), lane(&ys));
            for l in 0..4 {
                let (x, y) = std::hint::black_box((xs[g + l], ys[g + l]));
                for (op, scalar) in simd_ops(x, y).into_iter().enumerate() {
                    assert_eq!(
                        packed[op].0[l].to_bits(),
                        scalar.to_bits(),
                        "op {op} on ({x}, {y}): {} vs {scalar}",
                        packed[op].0[l]
                    );
                }
            }
        }
    }
}

// -------------------------------------------------------------- dispatch --

#[test]
fn entry_points_dispatch_on_global_width() {
    // 27 elements (ragged at every width) with mixed-sign pressures.
    let d = Domain::build(3, 2, 1, 1, 0);
    for e in 0..d.num_elem() {
        d.set_p(e, (e as Real * 0.7).sin() * 0.1);
    }
    let n = d.num_elem();
    let range = Chunk { begin: 0, end: n };
    let mut sx = vec![0.0; n];
    let mut sy = vec![0.0; n];
    let mut sz = vec![0.0; n];
    stress::init_stress_terms_for_elems(&d, &mut sx, &mut sy, &mut sz, range);

    let mut det1 = vec![0.0; n];
    let mut fx1 = vec![0.0; 8 * n];
    let mut fy1 = vec![0.0; 8 * n];
    let mut fz1 = vec![0.0; 8 * n];
    stress::integrate_stress_for_elems_scalar(
        &d, &sx, &sy, &sz, &mut det1, &mut fx1, &mut fy1, &mut fz1, range,
    );

    let prior = simd::active();
    for w in LaneWidth::ALL {
        simd::set_active(w);
        let mut det2 = vec![0.0; n];
        let mut fx2 = vec![0.0; 8 * n];
        let mut fy2 = vec![0.0; 8 * n];
        let mut fz2 = vec![0.0; 8 * n];
        stress::integrate_stress_for_elems(
            &d, &sx, &sy, &sz, &mut det2, &mut fx2, &mut fy2, &mut fz2, range,
        );
        assert_bits_eq(&det1, &det2, &format!("dispatch determ {w}"));
        assert_bits_eq(&fx1, &fx2, &format!("dispatch fx {w}"));
    }
    simd::set_active(prior);
}
