//! Adversarial key-churn workload: a **fresh hot set every interval**.
//!
//! The Zipf generator's fluctuation process swaps frequencies between
//! existing keys, so a routing table that pins the hot keys keeps paying
//! off across intervals. This generator is the adversary for that
//! assumption — and the natural stressor for elasticity decisions: each
//! interval, a brand-new, disjoint set of keys receives a fixed share of
//! the volume, so last interval's table entries (and last interval's
//! per-key statistics) say *nothing* about the coming interval. Skew
//! persists, but never on the same keys twice. Volume can additionally
//! ramp per interval (`with_volume_schedule`), producing the
//! variance-heavy load shape scale-out/scale-in policies must track.
//!
//! The third adversary is the skew taxonomy's scenario B
//! (`with_dominant_burst`): **one fixed key** carries an adjustable
//! fraction of the total volume for a burst window of intervals. A key
//! hotter than one worker's capacity defeats whole-key migration by
//! construction — no placement helps — which is exactly the scenario
//! hot-key splitting exists for, so this shape drives the split
//! benchmarks and the `SplitPolicy` tests.
//!
//! Deterministic given a seed, like every generator in this crate.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use streambal_core::{IntervalStats, Key, KeyStat};
use streambal_hashring::mix64;

/// Key-churn generator: `hot_n` fresh hot keys per interval carrying
/// `hot_share` of the interval's tuples, the rest spread uniformly over
/// the whole domain.
#[derive(Debug, Clone)]
pub struct ChurnWorkload {
    k: usize,
    tuples: u64,
    hot_n: usize,
    hot_share: f64,
    /// Per-interval volume multipliers (cycled); empty = flat volume.
    volume: Vec<f64>,
    /// Scenario-B dominant key: `(key, share, from, until)` — `key`
    /// takes `share` of the total volume in intervals `from..until`.
    dominant: Option<(Key, f64, u64, u64)>,
    interval: u64,
    rng: StdRng,
    /// Current interval's hot keys (disjoint from the previous set).
    hot: Vec<Key>,
    prev_hot: Vec<Key>,
}

impl ChurnWorkload {
    /// Creates the generator: `k` keys in the domain, `tuples` per
    /// interval at volume 1.0, `hot_n` fresh hot keys per interval
    /// holding `hot_share` of the volume.
    ///
    /// # Panics
    /// Panics unless `0 < 2·hot_n ≤ k` (two disjoint hot sets must fit)
    /// and `0 ≤ hot_share ≤ 1`.
    pub fn new(k: usize, tuples: u64, hot_n: usize, hot_share: f64, seed: u64) -> Self {
        assert!(
            hot_n > 0 && 2 * hot_n <= k,
            "need room for disjoint hot sets"
        );
        assert!((0.0..=1.0).contains(&hot_share), "hot_share is a fraction");
        let mut w = ChurnWorkload {
            k,
            tuples,
            hot_n,
            hot_share,
            volume: Vec::new(),
            dominant: None,
            interval: 0,
            rng: StdRng::seed_from_u64(seed ^ 0xC0FF_EE00),
            hot: Vec::new(),
            prev_hot: Vec::new(),
        };
        w.pick_hot_set();
        w
    }

    /// Sets a per-interval volume multiplier schedule (cycled when the
    /// run is longer) — e.g. `[1.0, 1.0, 4.0, 4.0, 1.0]` for a burst.
    pub fn with_volume_schedule(mut self, volume: impl Into<Vec<f64>>) -> Self {
        self.volume = volume.into();
        self
    }

    /// Skew-taxonomy scenario B: the single key `key` carries `share`
    /// of the total volume during intervals `from..until` (half-open);
    /// hot set and cold tail split the remainder in their usual
    /// proportions. Pick `key` outside the churn domain (`≥ k`) for an
    /// exactly attributable burst — a domain key would additionally
    /// draw its ordinary hot/cold mass.
    ///
    /// # Panics
    /// Panics unless `0 ≤ share ≤ 1` and `from < until`.
    pub fn with_dominant_burst(mut self, key: Key, share: f64, from: u64, until: u64) -> Self {
        assert!((0.0..=1.0).contains(&share), "share is a fraction");
        assert!(from < until, "empty burst window");
        self.dominant = Some((key, share, from, until));
        self
    }

    /// The scenario-B dominant key, if configured.
    pub fn dominant_key(&self) -> Option<Key> {
        self.dominant.map(|(k, ..)| k)
    }

    /// Whether the current interval is inside the dominant-key burst
    /// window.
    pub fn in_burst(&self) -> bool {
        self.dominant
            .is_some_and(|(_, _, from, until)| (from..until).contains(&self.interval))
    }

    /// Current interval index.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// This interval's hot keys (fresh every interval, disjoint from the
    /// previous interval's).
    pub fn hot_keys(&self) -> &[Key] {
        &self.hot
    }

    /// This interval's total tuple count (volume schedule applied).
    pub fn interval_tuples(&self) -> u64 {
        if self.volume.is_empty() {
            return self.tuples;
        }
        let m = self.volume[self.interval as usize % self.volume.len()];
        (self.tuples as f64 * m).round() as u64
    }

    /// Advances to the next interval, discarding the old hot set and
    /// drawing a fresh one disjoint from it.
    pub fn advance(&mut self) {
        self.interval += 1;
        self.pick_hot_set();
    }

    fn pick_hot_set(&mut self) {
        self.prev_hot = std::mem::take(&mut self.hot);
        // Rejection-sample distinct keys outside the previous hot set.
        // 2·hot_n ≤ k bounds the rejection rate; the scan over prev_hot
        // and the growing set is O(hot_n²) with hot_n ≪ k — fine for the
        // few-hundred-key hot sets this models.
        while self.hot.len() < self.hot_n {
            let cand = Key(mix64(self.rng.gen::<u64>()) % self.k as u64);
            if self.prev_hot.contains(&cand) || self.hot.contains(&cand) {
                continue;
            }
            self.hot.push(cand);
        }
    }

    /// Per-key tuple counts of the current interval: `(key, freq)` with
    /// zero-frequency keys omitted.
    fn freqs(&self) -> Vec<(Key, u64)> {
        let total = self.interval_tuples();
        // The dominant burst takes its share off the top; hot set and
        // cold tail split the exact remainder, so every interval's
        // frequencies sum to `interval_tuples()` to the tuple.
        let dom_total = if self.in_burst() {
            let (_, share, ..) = self.dominant.unwrap();
            (total as f64 * share).round() as u64
        } else {
            0
        };
        let total = total - dom_total;
        let hot_total = (total as f64 * self.hot_share).round() as u64;
        let cold_total = total - hot_total;
        let mut out: Vec<(Key, u64)> = Vec::with_capacity(self.hot_n + self.k + 1);
        if dom_total > 0 {
            let (key, ..) = self.dominant.unwrap();
            out.push((key, dom_total));
        }
        let per_hot = hot_total / self.hot_n as u64;
        let mut rem = hot_total - per_hot * self.hot_n as u64;
        for &h in &self.hot {
            let extra = u64::from(rem > 0);
            rem -= extra;
            out.push((h, per_hot + extra));
        }
        // Cold tail: uniform over the whole domain (hot keys may also
        // receive cold mass — irrelevant at hot_share ≫ 1/k).
        let per_cold = cold_total / self.k as u64;
        let cold_rem = cold_total - per_cold * self.k as u64;
        for i in 0..self.k {
            let f = per_cold + u64::from((i as u64) < cold_rem);
            if f > 0 {
                out.push((Key(i as u64), f));
            }
        }
        out
    }

    /// The current interval as aggregated statistics (simulator input):
    /// cost 1 and state 8 bytes per tuple, like the Zipf default.
    pub fn interval_stats(&self) -> IntervalStats {
        self.freqs()
            .into_iter()
            .map(|(k, f)| (k, KeyStat::new(f, f, f * 8)))
            .collect()
    }

    /// Materializes the interval as a concrete tuple sequence (runtime
    /// input), deterministically shuffled.
    pub fn tuples(&mut self) -> Vec<Key> {
        let mut out = Vec::with_capacity(self.interval_tuples() as usize);
        for (k, f) in self.freqs() {
            for _ in 0..f {
                out.push(k);
            }
        }
        for i in (1..out.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            out.swap(i, j);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_sets_are_fresh_and_disjoint_every_interval() {
        let mut w = ChurnWorkload::new(10_000, 50_000, 50, 0.8, 7);
        for _ in 0..10 {
            let prev: Vec<Key> = w.hot_keys().to_vec();
            w.advance();
            let now = w.hot_keys();
            assert_eq!(now.len(), 50);
            for k in now {
                assert!(!prev.contains(k), "hot key {k:?} survived the churn");
            }
        }
    }

    #[test]
    fn hot_share_is_respected() {
        let w = ChurnWorkload::new(10_000, 100_000, 100, 0.7, 3);
        let stats = w.interval_stats();
        let hot: u64 = w
            .hot_keys()
            .iter()
            .map(|&k| stats.get(k).unwrap().freq)
            .sum();
        let total: u64 = stats.iter().map(|(_, s)| s.freq).sum();
        // Hot keys may also draw cold mass, so ≥ the configured share and
        // within the cold tail's contribution of it.
        let share = hot as f64 / total as f64;
        assert!((0.69..=0.72).contains(&share), "hot share {share}");
        assert!(
            (total as i64 - 100_000).unsigned_abs() < 200,
            "total {total}"
        );
    }

    #[test]
    fn volume_schedule_cycles() {
        let mut w = ChurnWorkload::new(1_000, 10_000, 10, 0.5, 1).with_volume_schedule([1.0, 4.0]);
        assert_eq!(w.interval_tuples(), 10_000);
        w.advance();
        assert_eq!(w.interval_tuples(), 40_000);
        w.advance();
        assert_eq!(w.interval_tuples(), 10_000, "schedule cycles");
    }

    #[test]
    fn tuples_match_stats() {
        let mut w = ChurnWorkload::new(500, 5_000, 20, 0.9, 11);
        let stats = w.interval_stats();
        let tuples = w.tuples();
        assert_eq!(
            tuples.len() as u64,
            stats.iter().map(|(_, s)| s.freq).sum::<u64>()
        );
        let mut counts = streambal_hashring::FxHashMap::<Key, u64>::default();
        for &t in &tuples {
            *counts.entry(t).or_insert(0) += 1;
        }
        for (k, s) in stats.iter() {
            assert_eq!(counts.get(&k), Some(&s.freq), "key {k:?}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = ChurnWorkload::new(2_000, 10_000, 30, 0.8, 42);
        let mut b = ChurnWorkload::new(2_000, 10_000, 30, 0.8, 42);
        for _ in 0..3 {
            assert_eq!(a.hot_keys(), b.hot_keys());
            assert_eq!(a.tuples(), b.tuples());
            a.advance();
            b.advance();
        }
    }

    #[test]
    #[should_panic(expected = "disjoint hot sets")]
    fn oversized_hot_set_panics() {
        ChurnWorkload::new(10, 100, 6, 0.5, 1);
    }

    /// Scenario B volume attribution is exact to the tuple: inside the
    /// burst window the dominant key holds exactly its share of the
    /// total, outside it receives nothing, and every interval's
    /// frequencies still sum to `interval_tuples()`.
    #[test]
    fn dominant_burst_attribution_is_exact() {
        let dom = Key(5_000); // outside the churn domain
        let mut w =
            ChurnWorkload::new(1_000, 10_000, 10, 0.5, 9).with_dominant_burst(dom, 0.6, 2, 4);
        assert_eq!(w.dominant_key(), Some(dom));
        for interval in 0..6u64 {
            let stats = w.interval_stats();
            let total: u64 = stats.iter().map(|(_, s)| s.freq).sum();
            assert_eq!(total, w.interval_tuples(), "interval {interval} total");
            let got = stats.get(dom).map_or(0, |s| s.freq);
            if (2..4).contains(&interval) {
                assert!(w.in_burst());
                assert_eq!(got, 6_000, "dominant share exact during burst");
            } else {
                assert!(!w.in_burst());
                assert_eq!(got, 0, "no dominant mass outside the window");
            }
            // The materialized tuple stream attributes identically.
            let tuples = w.tuples();
            assert_eq!(tuples.len() as u64, total);
            assert_eq!(tuples.iter().filter(|&&k| k == dom).count() as u64, got);
            w.advance();
        }
    }

    /// The dominant share applies to the *scheduled* volume: a burst
    /// that coincides with a volume ramp takes its fraction of the
    /// ramped total.
    #[test]
    fn dominant_burst_composes_with_volume_schedule() {
        let dom = Key(9_999);
        let mut w = ChurnWorkload::new(1_000, 10_000, 10, 0.5, 13)
            .with_volume_schedule([1.0, 1.0, 4.0])
            .with_dominant_burst(dom, 0.6, 2, 3);
        w.advance();
        w.advance();
        assert_eq!(w.interval_tuples(), 40_000);
        let stats = w.interval_stats();
        assert_eq!(stats.get(dom).unwrap().freq, 24_000);
        let total: u64 = stats.iter().map(|(_, s)| s.freq).sum();
        assert_eq!(total, 40_000);
    }
}
