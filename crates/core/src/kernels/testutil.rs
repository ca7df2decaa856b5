//! Fixtures of the lane kernels' leg tests: each kernel's `group` body,
//! walked on every (pack, ISA) leg (`simd::Leg::all`), is compared with
//! `f64::to_bits` against its reference on NaN-poisoned outputs. Element
//! counts are deliberately non-multiples of every width (27 or 125 dense
//! elements; region lists of odd lengths) so the ragged tails always run.

use crate::domain::Domain;
use crate::types::Real;

/// Deterministically perturbed domain: 27 elements (3³), two regions,
/// mixed-sign pressures, viscosities and velocities.
pub(crate) fn seeded_domain() -> Domain {
    let d = Domain::build(3, 2, 1, 1, 0);
    for e in 0..d.num_elem() {
        d.set_p(e, (e as Real * 0.7).sin() * 0.1);
        d.set_q(e, (e as Real * 0.3).cos().abs() * 0.01);
        d.set_ss(e, 0.5 + (e as Real * 0.11).sin().abs());
    }
    for n in 0..d.num_node() {
        d.set_xd(n, (n as Real * 0.13).sin() * 0.02);
        d.set_yd(n, (n as Real * 0.29).cos() * 0.02);
        d.set_zd(n, (n as Real * 0.41).sin() * 0.02);
    }
    d
}

/// A 5³ mesh 25 iterations into the blast: 125 elements (ragged at every
/// width), distorted geometry, nonzero velocities and sound speeds.
pub(crate) fn mid_blast_domain() -> Domain {
    let d = Domain::build(5, 2, 1, 1, 0);
    crate::serial::run(&d, 25).unwrap();
    d
}

/// `a == b` bit for bit, NaN payloads and signed zeros included.
pub(crate) fn assert_bits_eq(a: &[Real], b: &[Real], what: &str) {
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
