//! Synthetic **Stock** workload (exchange records).
//!
//! The paper's second real dataset: 3 days of stock exchange records,
//! over 6 M tuples across 1,036 unique stock IDs, run under a windowed
//! self-join (finding high-frequency players with dense buying and selling
//! behavior). Its signature property per the paper: more abrupt and
//! unexpected bursts on certain keys — the opposite temporal profile of
//! Social.
//!
//! The synthetic substitution: a mild Zipf base load over 1,036 IDs, plus
//! a burst process — each interval a small random set of stocks trades at
//! `burst_factor ×` its base rate (earnings announcements, halts, memes),
//! and bursts decay after a random 1–3 intervals.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use streambal_core::{IntervalStats, Key};

use crate::zipf::{CostModel, ZipfGen};

/// Number of distinct stock IDs in the paper's dataset.
pub const PAPER_N_STOCKS: usize = 1_036;

/// The bursty stock-exchange workload.
#[derive(Debug, Clone)]
pub struct StockWorkload {
    base: Vec<u64>,
    /// Remaining burst intervals per key (0 = not bursting).
    burst_left: Vec<u8>,
    burst_factor: u64,
    bursts_per_interval: usize,
    cost: CostModel,
    rng: StdRng,
    interval: u64,
}

impl StockWorkload {
    /// Paper-scale defaults: 1,036 stocks, ~2 M tuples per day-interval,
    /// 2% of stocks bursting at 20× per interval.
    pub fn paper_scale(seed: u64) -> Self {
        Self::new(PAPER_N_STOCKS, 2_000_000, 20, 20, seed)
    }

    /// Creates the workload: `n_stocks` keys with `tuples` base tuples per
    /// interval, `bursts_per_interval` new bursts each at
    /// `burst_factor ×` base rate.
    pub fn new(
        n_stocks: usize,
        tuples: u64,
        bursts_per_interval: usize,
        burst_factor: u64,
        seed: u64,
    ) -> Self {
        assert!(n_stocks >= 2, "need at least two stocks");
        // Mild skew: trading volume is concentrated but not extreme.
        let gen = ZipfGen::new(n_stocks, 0.6);
        StockWorkload {
            base: gen.expected_freqs(tuples),
            burst_left: vec![0; n_stocks],
            burst_factor: burst_factor.max(1),
            bursts_per_interval,
            cost: CostModel::default(),
            rng: StdRng::seed_from_u64(seed ^ 0x570C4),
            interval: 0,
        }
    }

    /// Replaces the cost model.
    pub fn with_cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Number of stock IDs.
    pub fn n_stocks(&self) -> usize {
        self.base.len()
    }

    /// Current interval index.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Current tuple count of a stock (base or burst).
    pub fn freq(&self, key: Key) -> u64 {
        let i = key.raw() as usize;
        if self.burst_left[i] > 0 {
            self.base[i] * self.burst_factor
        } else {
            self.base[i]
        }
    }

    /// Keys currently bursting (for tests/diagnostics).
    pub fn bursting(&self) -> Vec<Key> {
        self.burst_left
            .iter()
            .enumerate()
            .filter(|(_, &b)| b > 0)
            .map(|(i, _)| Key(i as u64))
            .collect()
    }

    /// Advances one interval: decays ongoing bursts, ignites new ones on
    /// random stocks for 1–3 intervals.
    pub fn advance(&mut self) {
        self.interval += 1;
        for b in &mut self.burst_left {
            *b = b.saturating_sub(1);
        }
        for _ in 0..self.bursts_per_interval {
            let i = self.rng.gen_range(0..self.base.len());
            self.burst_left[i] = self.rng.gen_range(1..=3);
        }
    }

    /// The current interval as aggregated statistics.
    pub fn interval_stats(&self) -> IntervalStats {
        (0..self.base.len() as u64)
            .map(|i| (Key(i), self.freq(Key(i))))
            .filter(|&(_, f)| f > 0)
            .map(|(key, f)| (key, self.cost.stat(f)))
            .collect()
    }

    /// Materializes the interval's tuples, shuffled.
    pub fn tuples(&mut self) -> Vec<Key> {
        let mut out = Vec::new();
        for i in 0..self.base.len() {
            for _ in 0..self.freq(Key(i as u64)) {
                out.push(Key(i as u64));
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
    fn bursts_multiply_frequency() {
        let mut w = StockWorkload::new(100, 10_000, 5, 10, 2);
        assert!(w.bursting().is_empty());
        w.advance();
        let bursting = w.bursting();
        assert!(!bursting.is_empty());
        for k in bursting {
            let base = w.base[k.raw() as usize];
            if base > 0 {
                assert_eq!(w.freq(k), base * 10);
            }
        }
    }

    #[test]
    fn bursts_decay() {
        let mut w = StockWorkload::new(50, 1_000, 3, 10, 4);
        w.advance();
        assert!(!w.bursting().is_empty());
        // After 3 more intervals with no new ignitions, all old bursts are
        // gone (each lasts ≤ 3); disable new ignitions to observe decay.
        w.bursts_per_interval = 0;
        for _ in 0..3 {
            w.advance();
        }
        assert!(w.bursting().is_empty());
    }

    #[test]
    fn burst_changes_load_abruptly() {
        // Unlike Social's drift, a burst multiplies a key's frequency in a
        // single interval — the "abrupt and unexpected" profile.
        let mut w = StockWorkload::new(200, 100_000, 10, 20, 6);
        let before: u64 = (0..200u64).map(|k| w.freq(Key(k))).sum();
        w.advance();
        let after: u64 = (0..200u64).map(|k| w.freq(Key(k))).sum();
        assert!(
            after as f64 > before as f64 * 1.2,
            "bursts must add visible mass: {before} → {after}"
        );
    }

    #[test]
    fn paper_scale_dimensions() {
        let w = StockWorkload::paper_scale(1);
        assert_eq!(w.n_stocks(), 1_036);
        let total: u64 = (0..1_036u64).map(|k| w.freq(Key(k))).sum();
        assert!((1_500_000..2_500_000).contains(&total), "total {total}");
    }

    #[test]
    fn stats_and_tuples_agree() {
        let mut w = StockWorkload::new(64, 5_000, 4, 8, 3);
        w.advance();
        let iv = w.interval_stats();
        let tuples = w.tuples();
        let total_stats: u64 = iv.iter().map(|(_, s)| s.freq).sum();
        assert_eq!(tuples.len() as u64, total_stats);
    }

    #[test]
    fn deterministic() {
        let mut a = StockWorkload::new(64, 5_000, 4, 8, 3);
        let mut b = StockWorkload::new(64, 5_000, 4, 8, 3);
        a.advance();
        b.advance();
        assert_eq!(a.bursting(), b.bursting());
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn tiny_domain_panics() {
        StockWorkload::new(1, 100, 1, 2, 1);
    }
}
