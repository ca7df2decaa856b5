//! Result verification, mirroring the reference's `VerifyAndWriteFinalOutput`:
//! final origin energy plus the symmetry differences of transposed elements
//! on the ζ=0 plane, and some extra whole-mesh invariants used by the test
//! suite.

use crate::domain::{Domain, Field};
use crate::types::Real;

/// The reference's symmetry check over the ζ=0 element plane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SymmetryCheck {
    /// Maximum |e(j,k) − e(k,j)|.
    pub max_abs_diff: Real,
    /// Sum of |e(j,k) − e(k,j)|.
    pub total_abs_diff: Real,
    /// Maximum relative difference.
    pub max_rel_diff: Real,
}

/// Compute the three symmetry metrics the reference prints at exit.
pub fn symmetry_check(d: &Domain) -> SymmetryCheck {
    let nx = d.size();
    let mut max_abs_diff: Real = 0.0;
    let mut total_abs_diff: Real = 0.0;
    let mut max_rel_diff: Real = 0.0;

    for j in 0..nx {
        for k in j + 1..nx {
            let a = d.e(j * nx + k);
            let b = d.e(k * nx + j);
            let abs_diff = (a - b).abs();
            total_abs_diff += abs_diff;
            if max_abs_diff < abs_diff {
                max_abs_diff = abs_diff;
            }
            if b != 0.0 {
                let rel_diff = abs_diff / b;
                if max_rel_diff < rel_diff {
                    max_rel_diff = rel_diff;
                }
            }
        }
    }
    SymmetryCheck {
        max_abs_diff,
        total_abs_diff,
        max_rel_diff,
    }
}

/// Final origin energy — the headline number of a LULESH run.
pub fn final_origin_energy(d: &Domain) -> Real {
    d.e(0)
}

/// Maximum absolute difference between two domains of one shape, over
/// every value of every [`Field`]. Used by the cross-driver equivalence
/// tests.
pub fn max_field_difference(a: &Domain, b: &Domain) -> Real {
    assert_eq!(a.num_elem(), b.num_elem());
    assert_eq!(a.num_node(), b.num_node());
    let mut max: Real = 0.0;
    for f in Field::ALL {
        assert_eq!(a.field_len(f), b.field_len(f), "{}", f.label());
        for i in 0..a.field_len(f) {
            max = max.max((a.get(f, i) - b.get(f, i)).abs());
        }
    }
    max
}

/// Whole-mesh physical invariants that must hold at any point of a valid
/// run. Returns a description of the first violation.
pub fn check_invariants(d: &Domain) -> Result<(), String> {
    for e in 0..d.num_elem() {
        if d.v(e) <= 0.0 {
            return Err(format!(
                "element {e} has non-positive relative volume {}",
                d.v(e)
            ));
        }
        if !d.e(e).is_finite() || !d.p(e).is_finite() || !d.q(e).is_finite() {
            return Err(format!("element {e} has non-finite state"));
        }
        if d.q(e) < 0.0 {
            return Err(format!("element {e} has negative viscosity {}", d.q(e)));
        }
    }
    for n in 0..d.num_node() {
        if !d.x(n).is_finite() || !d.xd(n).is_finite() {
            return Err(format!("node {n} has non-finite state"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::Domain;

    #[test]
    fn fresh_domain_is_symmetric_and_valid() {
        let d = Domain::build(6, 2, 1, 1, 0);
        let s = symmetry_check(&d);
        assert_eq!(s.max_abs_diff, 0.0);
        assert_eq!(s.total_abs_diff, 0.0);
        assert_eq!(s.max_rel_diff, 0.0);
        assert!(check_invariants(&d).is_ok());
        assert!(final_origin_energy(&d) > 0.0);
    }

    #[test]
    fn symmetry_check_detects_asymmetry() {
        let d = Domain::build(4, 1, 1, 1, 0);
        // Break symmetry: e at (j=0,k=1) vs (j=1,k=0).
        d.set_e(1, 5.0);
        d.set_e(4, 3.0);
        let s = symmetry_check(&d);
        assert!((s.max_abs_diff - 2.0).abs() < 1e-15);
        assert!(s.total_abs_diff >= 2.0);
        assert!((s.max_rel_diff - 2.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn field_difference_is_zero_for_identical_domains() {
        let a = Domain::build(3, 2, 1, 1, 0);
        let b = Domain::build(3, 2, 1, 1, 0);
        assert_eq!(max_field_difference(&a, &b), 0.0);
        b.set_e(5, 1.0);
        assert!((max_field_difference(&a, &b) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn invariant_checker_catches_bad_state() {
        let d = Domain::build(2, 1, 1, 1, 0);
        d.set_v(3, -0.5);
        assert!(check_invariants(&d).is_err());
        d.set_v(3, 1.0);
        d.set_q(2, -1.0);
        assert!(check_invariants(&d).is_err());
        d.set_q(2, 0.0);
        d.set_e(1, Real::NAN);
        assert!(check_invariants(&d).is_err());
    }
}
