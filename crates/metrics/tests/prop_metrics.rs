//! Property-based tests for the measurement substrate.

use proptest::prelude::*;
use streambal_metrics::{Cdf, Histogram, OnlineStats};

/// Maps a generator triple onto a bucketing test value, biased towards the
/// boundaries the histogram's exact/geometric split makes delicate: the
/// split itself (15/16/17 at `GRADE = 8`), powers of two ± 1, and the top
/// of the domain.
fn bucket_probe_value(sel: usize, raw: u64, exp: u32) -> u64 {
    match sel {
        0 => raw,                             // anywhere in the domain
        1 => 15 + raw % 3,                    // 15, 16, 17
        2 => (1u64 << exp) - 1,               // 2^e − 1
        3 => 1u64 << exp,                     // 2^e
        4 => (1u64 << exp).saturating_add(1), // 2^e + 1
        _ => u64::MAX - raw % 2,              // top of the domain
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `bucket_of` is monotone and `bucket_value` is a true lower bound,
    /// across the exact/geometric boundary (`v ∈ {15, 16, 17}`), powers
    /// of two ± 1, and `u64::MAX`.
    #[test]
    fn histogram_bucket_monotone_and_lower_bound(
        (sel_a, raw_a, exp_a) in (0usize..6, 0u64..=u64::MAX, 1u32..=63),
        (sel_b, raw_b, exp_b) in (0usize..6, 0u64..=u64::MAX, 1u32..=63),
    ) {
        let a = bucket_probe_value(sel_a, raw_a, exp_a);
        let b = bucket_probe_value(sel_b, raw_b, exp_b);
        for v in [a, b] {
            let bucket = Histogram::bucket_of(v);
            let lower = Histogram::bucket_value(bucket);
            prop_assert!(
                lower <= v,
                "bucket_value(bucket_of({v})) = {lower} exceeds the value"
            );
            prop_assert!(bucket < Histogram::BUCKET_COUNT);
            // The lower bound is tight: the next bucket starts above v
            // (the last bucket has no successor to check).
            if bucket + 1 < Histogram::BUCKET_COUNT {
                let next = Histogram::bucket_value(bucket + 1);
                prop_assert!(next > v, "value {v} belongs to bucket {}", bucket + 1);
            }
        }
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(
            Histogram::bucket_of(lo) <= Histogram::bucket_of(hi),
            "bucket_of not monotone: {lo} → {}, {hi} → {}",
            Histogram::bucket_of(lo),
            Histogram::bucket_of(hi)
        );
    }

    /// Histogram quantiles stay within the recorded range and within the
    /// documented relative error of the exact quantile.
    #[test]
    fn histogram_quantile_bounds(values in proptest::collection::vec(1u64..1_000_000, 1..500), q in 0.0f64..=1.0) {
        let mut h = Histogram::new();
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for &v in &values {
            h.record(v);
        }
        let got = h.quantile(q);
        prop_assert!(got >= h.min() && got <= h.max());
        // Exact nearest-rank quantile.
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let exact = sorted[rank - 1] as f64;
        let rel = (got as f64 - exact).abs() / exact.max(1.0);
        prop_assert!(rel <= 0.15, "q={q}: got {got}, exact {exact}, rel {rel}");
    }

    /// Histogram merge is equivalent to recording the union.
    #[test]
    fn histogram_merge_union(a in proptest::collection::vec(1u64..100_000, 0..200), b in proptest::collection::vec(1u64..100_000, 0..200)) {
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        let mut hu = Histogram::new();
        for &v in &a { ha.record(v); hu.record(v); }
        for &v in &b { hb.record(v); hu.record(v); }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hu.count());
        prop_assert_eq!(ha.min(), hu.min());
        prop_assert_eq!(ha.max(), hu.max());
        prop_assert!((ha.mean() - hu.mean()).abs() < 1e-9);
        for q in [0.25, 0.5, 0.9, 0.99] {
            prop_assert_eq!(ha.quantile(q), hu.quantile(q));
        }
    }

    /// `record_n(v, n)` leaves the histogram `n` calls of `record(v)`
    /// leave — count, sum, min, max and every bucket — over any prior
    /// contents, for `n = 0` too, and for values from the exact buckets
    /// to `u64::MAX`.
    #[test]
    fn histogram_record_n_is_n_records(
        prior in proptest::collection::vec(0u64..1_000_000, 0..50),
        (sel, raw, exp) in (0usize..6, 0u64..=u64::MAX, 1u32..=63),
        n in 0u64..300,
    ) {
        let v = bucket_probe_value(sel, raw, exp);
        let mut once = Histogram::new();
        for &p in &prior { once.record(p); }
        let mut each = once.clone();
        once.record_n(v, n);
        for _ in 0..n { each.record(v); }
        prop_assert_eq!(once, each);
    }

    /// OnlineStats merge == sequential, for any split point.
    #[test]
    fn online_stats_merge_any_split(values in proptest::collection::vec(-1e6f64..1e6, 1..200), split_at in 0usize..200) {
        let split = split_at.min(values.len());
        let mut whole = OnlineStats::new();
        for &v in &values { whole.add(v); }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &v in &values[..split] { left.add(v); }
        for &v in &values[split..] { right.add(v); }
        left.merge(&right);
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.mean() - whole.mean()).abs() < 1e-6);
        prop_assert!((left.variance() - whole.variance()).abs() < 1e-3);
    }

    /// CDF percentile is monotone in p and brackets the sample range.
    #[test]
    fn cdf_monotone(values in proptest::collection::vec(-1e9f64..1e9, 1..300)) {
        let mut c = Cdf::from_samples(values.clone());
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=10 {
            let p = i as f64 / 10.0;
            let v = c.percentile(p).unwrap();
            prop_assert!(v >= prev);
            prev = v;
        }
        let min = values.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(c.percentile(1.0).unwrap(), max);
        prop_assert!(c.percentile(0.0).unwrap() >= min);
    }
}
