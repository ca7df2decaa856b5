//! Order statistics for timing samples.
//!
//! On this host the noise is one-sided but comes in states that last
//! seconds: a rare fast state some runs never see, a common one, and slow
//! periods under neighbour load. The single fastest sample follows the
//! rare state and the median follows the slow periods; the **fastest
//! decile** ([`fast`]) ignores one lucky block and all slow ones, and was
//! the steadiest of the statistics tried (see `benchmark/README.md`). A
//! tail percentile is only reported when at least ten samples lie beyond.

/// Smallest sample; `None` for an empty set.
pub fn best(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().min_by(f64::total_cmp)
}

/// Largest sample; `None` for an empty set.
pub fn worst(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().max_by(f64::total_cmp)
}

/// Linear-interpolated quantile `p` in `[0, 1]`; `None` for an empty set.
pub fn quantile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// The quantile block timings are summarised by.
pub const FAST_QUANTILE: f64 = 0.10;

/// The fastest decile: what a timing metric reports for a set of blocks.
pub fn fast(samples: &[f64]) -> Option<f64> {
    quantile(samples, FAST_QUANTILE)
}

/// Median; `None` for an empty set.
pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

/// Samples that must lie beyond a tail percentile before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// Percentile `pct` (above the median), reported only when at least
/// [`TAIL_SAMPLES`] samples lie beyond it: p90 needs 100 samples, p99
/// needs 1000.
pub fn tail_percentile(samples: &[f64], pct: usize) -> Option<f64> {
    let beyond = samples.len() * 100usize.saturating_sub(pct) / 100;
    if beyond < TAIL_SAMPLES {
        return None;
    }
    quantile(samples, pct as f64 / 100.0)
}

/// `|a − b| ÷ a`, the A/A distance `selfcheck` gates on.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == 0.0 { 0.0 } else { f64::INFINITY };
    }
    (a - b).abs() / a.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_worst_median_of_small_sets() {
        let v = [3.0, 1.0, 2.0, 10.0];
        assert_eq!(best(&v), Some(1.0));
        assert_eq!(worst(&v), Some(10.0));
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(best(&[]), None);
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn fastest_decile_skips_one_lucky_block() {
        // Ten ordinary blocks and one from a rare fast host state.
        let mut v = vec![1.0; 10];
        v.push(0.7);
        assert_eq!(best(&v), Some(0.7));
        assert_eq!(fast(&v), Some(1.0));
        assert_eq!(fast(&[2.0, 1.0]), Some(1.1), "interpolates on tiny sets");
        assert_eq!(fast(&[]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(
            tail_percentile(&v, 90),
            None,
            "99 samples leave 9 beyond p90"
        );
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert!(tail_percentile(&v, 90).is_some(), "exactly 10 beyond p90");
        let v: Vec<f64> = (0..101).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 90), Some(90.0));
        assert_eq!(tail_percentile(&v, 99), None);
    }

    #[test]
    fn rel_diff_is_relative_to_first() {
        assert!((rel_diff(100.0, 95.0) - 0.05).abs() < 1e-12);
        assert_eq!(rel_diff(0.0, 0.0), 0.0);
        assert!(rel_diff(0.0, 1.0).is_infinite());
    }
}
