//! Log-bucketed histogram for latency recording.
//!
//! Values (e.g. per-tuple latency in microseconds) are binned into buckets
//! whose width grows geometrically: bucket `b` covers
//! `[2^(b/GRADE), 2^((b+1)/GRADE))` with `GRADE` sub-divisions per octave.
//! This bounds relative quantile error to about `2^(1/GRADE) - 1` (≈ 9% at
//! `GRADE = 8`) with a few hundred buckets across nine decades, the same
//! trade HDR histograms make.

/// Sub-divisions per power of two. 8 gives ≤ ~12.5% relative error.
const GRADE: u32 = 8;
/// Number of buckets: exact buckets below 16, then 8 per octave up to
/// `u64::MAX` (top exponent 63 → index 63·8 + 7 − 16 = 495).
const BUCKETS: usize = 496;

/// A fixed-footprint histogram over `u64` values.
///
/// Recording is `O(1)`; quantile queries scan the bucket array. Not
/// thread-safe by itself — each task records into its own histogram and the
/// collector merges them (see [`Histogram::merge`]), which avoids hot-path
/// contention entirely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Box<[u64; BUCKETS]>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Total number of buckets; `bucket_of` returns indices in
    /// `0..BUCKET_COUNT` and `bucket_value` accepts exactly that range.
    pub const BUCKET_COUNT: usize = BUCKETS;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: Box::new([0u64; BUCKETS]),
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index of `value`. Monotone in `value`, and
    /// `bucket_value(bucket_of(v)) ≤ v` for every `v` (the property tests
    /// in `tests/prop_metrics.rs` pin both across the exact/geometric
    /// boundary). Public for those tests and for external bucket-level
    /// consumers; recording should go through [`Histogram::record`].
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        // Values below 2·GRADE get exact buckets; above, the bucket is the
        // exponent octave refined by the three bits following the MSB.
        if value < 2 * GRADE as u64 {
            return value as usize;
        }
        let exp = 63 - value.leading_zeros();
        let sub = ((value >> (exp - 3)) & 0x7) as u32;
        (exp * GRADE + sub - 2 * GRADE) as usize
    }

    /// Lower-bound value of bucket `b` (exact for the small-value buckets).
    pub fn bucket_value(b: usize) -> u64 {
        if b < 2 * GRADE as usize {
            return b as u64;
        }
        let idx = b as u32 + 2 * GRADE;
        let exp = idx / GRADE;
        let sub = (idx % GRADE) as u64;
        (1u64 << exp) + sub * (1u64 << (exp - 3))
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
        self.total += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records `value` `n` times: the histogram `n` calls of
    /// [`Histogram::record`] leave, in one update.
    #[inline]
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.counts[Self::bucket_of(value)] += n;
        self.total += n;
        self.sum += value as u128 * n as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    #[inline]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Exact arithmetic mean of recorded values (not bucketed).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.sum as f64 / self.total as f64
    }

    /// Smallest recorded value, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate quantile `q ∈ [0,1]`; returns 0 when empty.
    ///
    /// The true quantile lies within one bucket width (≈ 9% relative) of
    /// the returned value, except at the extremes where exact `min`/`max`
    /// are returned.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        if q <= 0.0 {
            return self.min();
        }
        if q >= 1.0 {
            return self.max;
        }
        let rank = (q * self.total as f64).ceil() as u64;
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_value(b).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges another histogram into this one (used by the collector to
    /// combine per-task histograms).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Clears all recorded values.
    pub fn reset(&mut self) {
        self.counts.fill(0);
        self.total = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn exact_small_values() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(1);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1);
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30, 40] {
            h.record(v);
        }
        assert_eq!(h.mean(), 25.0);
    }

    #[test]
    fn quantiles_within_relative_error() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        for &(q, expect) in &[(0.5, 50_000.0), (0.9, 90_000.0), (0.99, 99_000.0)] {
            let got = h.quantile(q) as f64;
            let rel = (got - expect).abs() / expect;
            assert!(
                rel < 0.15,
                "q={q}: got {got}, want ≈{expect} (rel {rel:.3})"
            );
        }
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 100_000);
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in 1..=500u64 {
            a.record(v);
        }
        for v in 501..=1000u64 {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 1000);
        assert_eq!(a.min(), 1);
        assert_eq!(a.max(), 1000);
        let med = a.quantile(0.5) as f64;
        assert!((med - 500.0).abs() / 500.0 < 0.15, "median {med}");
    }

    #[test]
    fn reset_clears() {
        let mut h = Histogram::new();
        h.record(42);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
    }

    #[test]
    fn huge_values_clamp_into_last_bucket() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), u64::MAX);
        // Quantile is clamped to observed max.
        assert_eq!(h.quantile(0.5), u64::MAX);
    }

    #[test]
    fn bucket_monotone() {
        let mut prev = 0;
        for v in (0..1_000_000u64).step_by(997) {
            let b = Histogram::bucket_of(v);
            assert!(b >= prev || v == 0, "bucket not monotone at {v}");
            prev = b;
        }
    }
}
