//! Property-based tests for the statistics substrate.

use abp_stats::{ci95_half_width, median, quantile, Summary, Welford};
use proptest::prelude::*;

fn sample() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6..1e6f64, 1..200)
}

proptest! {
    #[test]
    fn mean_within_min_max(xs in sample()) {
        let s = Summary::from_slice(&xs);
        prop_assert!(s.mean() >= s.min() - 1e-9);
        prop_assert!(s.mean() <= s.max() + 1e-9);
    }

    #[test]
    fn median_within_min_max(xs in sample()) {
        let m = median(&xs).unwrap();
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo && m <= hi);
    }

    #[test]
    fn quantile_monotone_in_q(xs in sample(), q1 in 0.0..=1.0f64, q2 in 0.0..=1.0f64) {
        let (qa, qb) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let a = quantile(&xs, qa).unwrap();
        let b = quantile(&xs, qb).unwrap();
        prop_assert!(a <= b + 1e-9);
    }

    #[test]
    fn summary_agrees_with_welford(xs in sample()) {
        let s = Summary::from_slice(&xs);
        let w: Welford = xs.iter().copied().collect();
        let scale = 1.0 + s.mean().abs();
        prop_assert!((s.mean() - w.mean()).abs() < 1e-7 * scale);
        prop_assert!((s.std() - w.sample_std()).abs() < 1e-5 * (1.0 + s.std()));
        prop_assert_eq!(s.min(), w.min());
        prop_assert_eq!(s.max(), w.max());
    }

    #[test]
    fn welford_merge_any_split(xs in sample(), split in 0usize..200) {
        let k = split.min(xs.len());
        let seq: Welford = xs.iter().copied().collect();
        let mut a: Welford = xs[..k].iter().copied().collect();
        let b: Welford = xs[k..].iter().copied().collect();
        a.merge(&b);
        prop_assert_eq!(a.count(), seq.count());
        prop_assert!((a.mean() - seq.mean()).abs() < 1e-6 * (1.0 + seq.mean().abs()));
        prop_assert!(
            (a.sample_variance() - seq.sample_variance()).abs()
                < 1e-5 * (1.0 + seq.sample_variance())
        );
    }

    #[test]
    fn shift_invariance_of_std(xs in sample(), shift in -1e5..1e5f64) {
        let s1 = Summary::from_slice(&xs);
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        let s2 = Summary::from_slice(&shifted);
        prop_assert!((s1.std() - s2.std()).abs() < 1e-5 * (1.0 + s1.std()));
        prop_assert!((s2.mean() - s1.mean() - shift).abs() < 1e-6 * (1.0 + shift.abs()));
    }

    #[test]
    fn ci_half_width_nonnegative_and_shrinking(s in 0.0..1e3f64, n1 in 2u64..1000, n2 in 2u64..1000) {
        let (a, b) = if n1 <= n2 { (n1, n2) } else { (n2, n1) };
        let wa = ci95_half_width(a, s);
        let wb = ci95_half_width(b, s);
        prop_assert!(wa >= 0.0 && wb >= 0.0);
        prop_assert!(wb <= wa + 1e-12, "more samples must not widen the CI");
    }
}
