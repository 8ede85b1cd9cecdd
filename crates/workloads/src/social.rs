//! Synthetic **Social** workload (microblog feed).
//!
//! The paper's first real dataset: 5 days of microblog feeds, >5 M tuples,
//! 180 K topic words as keys, run under a word-count topology. Its
//! signature property: "the word frequency in Social data usually changes
//! slowly" — popularity drifts, no sharp bursts.
//!
//! We reproduce that process synthetically (the original feed is not
//! available): a Zipf(≈1) vocabulary whose rank permutation *rotates
//! gradually* — each interval, a fraction `drift` of adjacent rank pairs
//! swap, so hot words cool down and mid-tail words heat up over hours, the
//! way trending topics behave.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use streambal_core::{IntervalStats, Key};
use streambal_hashring::mix64;

use crate::zipf::{CostModel, ZipfGen};

/// The slow-drift topic-word workload.
#[derive(Debug, Clone)]
pub struct SocialWorkload {
    /// `rank_of_key[key] = popularity rank` (0 = hottest).
    rank_of_key: Vec<u32>,
    /// Expected tuple count per rank.
    count_of_rank: Vec<u64>,
    cost: CostModel,
    drift: f64,
    rng: StdRng,
    interval: u64,
}

impl SocialWorkload {
    /// Paper-scale defaults: 180 K words, ~1 M tuples per day-interval,
    /// gentle drift.
    pub fn paper_scale(seed: u64) -> Self {
        Self::new(180_000, 1_000_000, 0.02, seed)
    }

    /// Creates the workload: `vocab` words, `tuples` per interval, and a
    /// `drift ∈ [0,1]` fraction of rank pairs swapped per interval.
    pub fn new(vocab: usize, tuples: u64, drift: f64, seed: u64) -> Self {
        assert!(vocab >= 2, "vocabulary must hold at least two words");
        let gen = ZipfGen::new(vocab, 1.0);
        let count_of_rank = gen.expected_freqs(tuples);
        // Deterministic random permutation of ranks onto word ids.
        let mut order: Vec<usize> = (0..vocab).collect();
        order.sort_unstable_by_key(|&i| mix64(i as u64 ^ seed));
        let mut rank_of_key = vec![0u32; vocab];
        for (rank, &key_id) in order.iter().enumerate() {
            rank_of_key[key_id] = rank as u32;
        }
        SocialWorkload {
            rank_of_key,
            count_of_rank,
            cost: CostModel::default(),
            drift: drift.clamp(0.0, 1.0),
            rng: StdRng::seed_from_u64(seed ^ 0x50C1A1),
            interval: 0,
        }
    }

    /// Replaces the cost model.
    pub fn with_cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.rank_of_key.len()
    }

    /// Current interval index.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Tuple count of a word in the current interval.
    pub fn freq(&self, key: Key) -> u64 {
        self.count_of_rank[self.rank_of_key[key.raw() as usize] as usize]
    }

    /// Advances one interval: swaps `drift · vocab` random *adjacent-rank*
    /// word pairs — popularity shifts but never jumps, matching the
    /// paper's "changes slowly" characterization.
    pub fn advance(&mut self) {
        self.interval += 1;
        let vocab = self.rank_of_key.len();
        let swaps = (self.drift * vocab as f64) as usize;
        // rank → key inverse map for adjacent swapping.
        let mut key_of_rank = vec![0u32; vocab];
        for (key, &rank) in self.rank_of_key.iter().enumerate() {
            key_of_rank[rank as usize] = key as u32;
        }
        for _ in 0..swaps {
            let r = self.rng.gen_range(0..vocab - 1);
            let (ka, kb) = (key_of_rank[r], key_of_rank[r + 1]);
            key_of_rank.swap(r, r + 1);
            self.rank_of_key.swap(ka as usize, kb as usize);
        }
    }

    /// The current interval as aggregated statistics.
    pub fn interval_stats(&self) -> IntervalStats {
        self.rank_of_key
            .iter()
            .enumerate()
            .map(|(key, &rank)| (Key(key as u64), self.count_of_rank[rank as usize]))
            .filter(|&(_, f)| f > 0)
            .map(|(key, f)| (key, self.cost.stat(f)))
            .collect()
    }

    /// Materializes the interval's tuples (word occurrences), shuffled.
    pub fn tuples(&mut self) -> Vec<Key> {
        let mut out = Vec::new();
        for (key, &rank) in self.rank_of_key.iter().enumerate() {
            for _ in 0..self.count_of_rank[rank as usize] {
                out.push(Key(key as u64));
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
    fn hot_word_exists_and_dominates() {
        let w = SocialWorkload::new(1000, 100_000, 0.02, 1);
        let hottest = (0..1000u64).map(|k| w.freq(Key(k))).max().unwrap();
        let total: u64 = (0..1000u64).map(|k| w.freq(Key(k))).sum();
        assert!(hottest as f64 > total as f64 * 0.05, "Zipf(1) head");
    }

    #[test]
    fn drift_changes_distribution_slowly() {
        let mut w = SocialWorkload::new(2000, 50_000, 0.05, 3);
        let before: Vec<u64> = (0..2000u64).map(|k| w.freq(Key(k))).collect();
        w.advance();
        let after: Vec<u64> = (0..2000u64).map(|k| w.freq(Key(k))).collect();
        let changed = before.iter().zip(&after).filter(|(b, a)| b != a).count();
        assert!(changed > 0, "drift must change something");
        // Adjacent-rank swaps: total tuple mass is conserved...
        assert_eq!(
            before.iter().sum::<u64>(),
            after.iter().sum::<u64>(),
            "mass conserved"
        );
        // ...and per-key change is gradual (bounded by one rank step per
        // swap): no key's frequency may explode in one interval.
        for (k, (&b, &a)) in before.iter().zip(&after).enumerate() {
            if b > 100 {
                let ratio = a as f64 / b as f64;
                assert!((0.2..5.0).contains(&ratio), "key {k} jumped {b} → {a}");
            }
        }
    }

    #[test]
    fn long_run_drift_reshuffles_popularity() {
        let mut w = SocialWorkload::new(500, 50_000, 0.2, 7);
        let hot_before: u64 = (0..500u64).max_by_key(|&k| w.freq(Key(k))).unwrap();
        for _ in 0..300 {
            w.advance();
        }
        let rank_now = w.rank_of_key[hot_before as usize];
        assert!(rank_now > 0, "after many intervals the old #1 should sink");
    }

    #[test]
    fn stats_and_tuples_agree() {
        let mut w = SocialWorkload::new(200, 5_000, 0.0, 5);
        let iv = w.interval_stats();
        let tuples = w.tuples();
        let total_stats: u64 = iv.iter().map(|(_, s)| s.freq).sum();
        assert_eq!(tuples.len() as u64, total_stats);
    }

    #[test]
    fn deterministic() {
        let a = SocialWorkload::new(100, 1000, 0.1, 9).interval_stats();
        let b = SocialWorkload::new(100, 1000, 0.1, 9).interval_stats();
        assert_eq!(a.len(), b.len());
        for (k, s) in a.iter() {
            assert_eq!(b.get(k), Some(s));
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn tiny_vocab_panics() {
        SocialWorkload::new(1, 100, 0.1, 1);
    }
}
