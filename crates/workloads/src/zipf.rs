//! Zipf-distributed synthetic workload with controlled fluctuation.
//!
//! Reproduces the paper's synthetic generator: per interval, tuples over an
//! integer key domain `K` follow a Zipf distribution with skew `z`; across
//! intervals, the generator "keeps swapping frequencies between keys from
//! different task instances until the change on workload is significant
//! enough, i.e. `|Lᵢ(d) − Lᵢ₋₁(d)| / L̄ ≥ f`" — the fluctuation-rate knob
//! `f` of Tab. II.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use streambal_core::{IntervalStats, Key, KeyStat, TaskId};
use streambal_hashring::{mix64, unmix64};

/// How a key's per-interval tuple count translates into computation cost
/// and state bytes.
///
/// The paper measures `cᵢ(k)` and `sᵢ(k)` empirically and makes no
/// correlation assumption; the synthetic workloads use a linear model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// CPU units per tuple.
    pub cost_per_tuple: u64,
    /// State bytes per tuple (the window keeps `w` intervals of these).
    pub state_per_tuple: u64,
}

impl CostModel {
    /// What `freq` tuples of one key measure.
    pub fn stat(&self, freq: u64) -> KeyStat {
        KeyStat::new(
            freq,
            freq * self.cost_per_tuple,
            freq * self.state_per_tuple,
        )
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            cost_per_tuple: 1,
            state_per_tuple: 8,
        }
    }
}

/// A plain Zipf(`z`) sampler over ranks `0..k` (rank 0 most popular),
/// built from the inverse-CDF table.
#[derive(Debug, Clone)]
pub struct ZipfGen {
    cum: Vec<f64>,
}

impl ZipfGen {
    /// Builds the sampler. `z = 0` is uniform; the paper sweeps `z` up to
    /// 1.0 with default 0.85.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize, z: f64) -> Self {
        assert!(k > 0, "key domain must be non-empty");
        let mut cum = Vec::with_capacity(k);
        let mut acc = 0.0f64;
        for i in 1..=k {
            acc += 1.0 / (i as f64).powf(z);
            cum.push(acc);
        }
        let total = acc;
        for c in &mut cum {
            *c /= total;
        }
        ZipfGen { cum }
    }

    /// Samples a rank.
    #[inline]
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        self.cum.partition_point(|&c| c < u).min(self.cum.len() - 1)
    }

    /// Expected tuple count of `rank` out of `total` tuples.
    pub fn expected_count(&self, rank: usize, total: u64) -> f64 {
        let lo = if rank == 0 { 0.0 } else { self.cum[rank - 1] };
        (self.cum[rank] - lo) * total as f64
    }

    /// Deterministic per-key expected frequencies summing to ≈ `total`.
    pub fn expected_freqs(&self, total: u64) -> Vec<u64> {
        (0..self.cum.len())
            .map(|r| self.expected_count(r, total).round() as u64)
            .collect()
    }
}

/// The paper's synthetic interval workload: Zipf base distribution plus
/// the fluctuation process.
#[derive(Debug, Clone)]
pub struct FluctuatingWorkload {
    /// Tuple count per key for the *current* interval, indexed by key id.
    freqs: Vec<u64>,
    cost: CostModel,
    f: f64,
    rng: StdRng,
    interval: u64,
}

impl FluctuatingWorkload {
    /// Creates the workload: `k` keys, skew `z`, `tuples` per interval,
    /// fluctuation rate `f`, deterministic under `seed`.
    ///
    /// Key ids are a pseudo-random permutation of popularity ranks (so the
    /// hot keys are scattered over the hash space, as real topic ids are).
    pub fn new(k: usize, z: f64, tuples: u64, f: f64, seed: u64) -> Self {
        let gen = ZipfGen::new(k, z);
        let by_rank = gen.expected_freqs(tuples);
        // Permute ranks onto key ids deterministically: ids in order of
        // their hash. Each hash is computed once and sorted alone, and
        // `unmix64` gives its id back; `mix64` is a bijection, so the
        // hashes are distinct and any sort gives this permutation. (Sorted
        // `(hash, id)` pairs give it too, but at K = 2·10⁵ freeing their
        // 3.2 MB raised glibc's mmap threshold above the 2 MB interval
        // buffers `benchmark/` allocates next: `wide` peak RSS +23 MiB.)
        let mut hashes: Vec<u64> = (0..k as u64).map(|i| mix64(i ^ seed)).collect();
        hashes.sort_unstable();
        let mut freqs = vec![0u64; k];
        for (rank, &h) in hashes.iter().enumerate() {
            freqs[(unmix64(h) ^ seed) as usize] = by_rank[rank];
        }
        FluctuatingWorkload {
            freqs,
            cost: CostModel::default(),
            f,
            rng: StdRng::seed_from_u64(seed),
            interval: 0,
        }
    }

    /// Replaces the cost model.
    pub fn with_cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Key-domain size.
    pub fn n_keys(&self) -> usize {
        self.freqs.len()
    }

    /// Current interval index.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Per-key tuple counts of the current interval.
    pub fn freqs(&self) -> &[u64] {
        &self.freqs
    }

    /// Advances to the next interval, swapping key frequencies between
    /// keys on *different* destinations (per `dest`) until some task's
    /// load shift reaches `f · L̄` — the paper's fluctuation process.
    ///
    /// Swaps pair the hottest not-yet-swapped keys with the coldest keys
    /// of a receiving task, so the target shift is reached with few swaps
    /// even for `f = 2` (uniform random pairs would random-walk and never
    /// get there). With `f = 0` the distribution is static.
    pub fn advance(&mut self, n_tasks: usize, mut dest: impl FnMut(Key) -> TaskId) {
        self.interval += 1;
        if self.f <= 0.0 || self.freqs.len() < 2 || n_tasks < 2 {
            return;
        }
        let total: u64 = self.freqs.iter().sum();
        let mean = total as f64 / n_tasks as f64;
        if mean == 0.0 {
            return;
        }
        let target = (self.f * mean).ceil() as i64;

        // One receiving task per interval (rotated pseudo-randomly):
        // donor keys elsewhere swap frequencies with its coldest keys.
        let db = self.rng.gen_range(0..n_tasks);
        // Donors: keys not on db, descending frequency. Cold pool: keys on
        // db, ascending frequency. Both are split off in one pass, in
        // ascending id order. Many keys share a frequency, and the order
        // among equals decides which of them swap: these two sorts stay
        // `sort_unstable_by_key` over `u32` ids, since another algorithm,
        // element type or input order would order ties differently and
        // change every generated workload. The two lists grow as they
        // fill: reserving every key for each raised `benchmark/`'s `wide`
        // peak RSS by 25 MiB (allocator layout, DESIGN.md §15).
        let (mut donors, mut cold): (Vec<u32>, Vec<u32>) =
            (0..self.freqs.len() as u32).partition(|&i| dest(Key(u64::from(i))).index() != db);
        donors.sort_unstable_by_key(|&i| std::cmp::Reverse(self.freqs[i as usize]));
        cold.sort_unstable_by_key(|&i| self.freqs[i as usize]);

        // Greedy coin-change: walk donors in descending size, taking every
        // swap that fits in the remaining budget. This reaches the target
        // within the granularity of the smallest donor, for any f — a
        // single head-key swap would overshoot small targets by an order
        // of magnitude.
        let mut remaining = target;
        let mut ci = 0usize; // cursor into the (ascending) cold pool
        let mut fallback: Option<u32> = None; // smallest overshooting donor
        for a in donors {
            if remaining <= 0 || ci >= cold.len() {
                break;
            }
            let b = cold[ci];
            let delta = self.freqs[a as usize] as i64 - self.freqs[b as usize] as i64;
            if delta <= 0 {
                // Donors are descending: no later donor beats this cold key.
                break;
            }
            if delta <= remaining {
                self.freqs.swap(a as usize, b as usize);
                remaining -= delta;
                ci += 1;
            } else {
                fallback = Some(a); // last seen = smallest overshooter
            }
        }
        if remaining > 0 && ci < cold.len() {
            // Nothing smaller fits: perform the smallest overshooting swap
            // so the interval still fluctuates by ≥ f·L̄ (the paper's
            // threshold is a lower bound).
            if let Some(a) = fallback {
                self.freqs.swap(a as usize, cold[ci] as usize);
            }
        }
    }

    /// The current interval as aggregated statistics (simulator input).
    pub fn interval_stats(&self) -> IntervalStats {
        self.freqs
            .iter()
            .enumerate()
            .filter(|&(_, &f)| f > 0)
            .map(|(i, &f)| (Key(i as u64), self.cost.stat(f)))
            .collect()
    }

    /// Materializes the interval as a concrete tuple sequence (runtime
    /// input): every key repeated `freq` times, deterministically
    /// interleaved.
    pub fn tuples(&mut self) -> Vec<Key> {
        let total: u64 = self.freqs.iter().sum();
        let mut out = Vec::with_capacity(total as usize);
        for (i, &f) in self.freqs.iter().enumerate() {
            for _ in 0..f {
                out.push(Key(i as u64));
            }
        }
        // Fisher-Yates with the workload's own RNG: deterministic.
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
    fn zipf_uniform_when_z_zero() {
        let g = ZipfGen::new(100, 0.0);
        let freqs = g.expected_freqs(100_000);
        for &f in &freqs {
            assert!((f as i64 - 1000).abs() <= 1, "uniform expected, got {f}");
        }
    }

    #[test]
    fn zipf_head_dominates_at_high_skew() {
        let g = ZipfGen::new(1000, 1.0);
        let freqs = g.expected_freqs(100_000);
        assert!(freqs[0] > freqs[999] * 100, "rank 0 must dwarf the tail");
        // Monotone non-increasing.
        for w in freqs.windows(2) {
            assert!(w[0] >= w[1]);
        }
    }

    #[test]
    fn zipf_sampling_matches_expectation() {
        let g = ZipfGen::new(50, 0.85);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = vec![0u64; 50];
        let n = 200_000;
        for _ in 0..n {
            counts[g.sample(&mut rng)] += 1;
        }
        for rank in [0usize, 1, 10] {
            let expect = g.expected_count(rank, n);
            let got = counts[rank] as f64;
            assert!(
                (got - expect).abs() / expect < 0.1,
                "rank {rank}: got {got}, expect {expect}"
            );
        }
    }

    #[test]
    fn freqs_sum_is_close_to_requested() {
        let w = FluctuatingWorkload::new(10_000, 0.85, 100_000, 0.0, 42);
        let total: u64 = w.freqs().iter().sum();
        assert!(
            (total as i64 - 100_000).unsigned_abs() < 6_000,
            "total {total}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = FluctuatingWorkload::new(1000, 0.85, 10_000, 0.5, 9);
        let b = FluctuatingWorkload::new(1000, 0.85, 10_000, 0.5, 9);
        assert_eq!(a.freqs(), b.freqs());
    }

    #[test]
    fn advance_moves_load_proportionally_to_f() {
        let n_tasks = 4usize;
        let dest = |k: Key| TaskId::from((k.raw() % n_tasks as u64) as usize);
        let loads = |w: &FluctuatingWorkload| {
            let mut l = vec![0u64; n_tasks];
            for (i, &f) in w.freqs().iter().enumerate() {
                l[dest(Key(i as u64)).index()] += f;
            }
            l
        };
        for f in [0.2f64, 0.8] {
            let mut w = FluctuatingWorkload::new(5000, 0.85, 200_000, f, 3);
            let before = loads(&w);
            let mean = before.iter().sum::<u64>() as f64 / n_tasks as f64;
            w.advance(n_tasks, dest);
            let after = loads(&w);
            let max_shift = before
                .iter()
                .zip(&after)
                .map(|(&b, &a)| (b as i64 - a as i64).unsigned_abs())
                .max()
                .unwrap();
            assert!(
                max_shift as f64 >= f * mean,
                "f={f}: shift {max_shift} < target {}",
                f * mean
            );
        }
    }

    #[test]
    fn advance_with_zero_f_is_static() {
        let mut w = FluctuatingWorkload::new(1000, 0.85, 10_000, 0.0, 5);
        let before = w.freqs().to_vec();
        w.advance(4, |k| TaskId::from((k.raw() % 4) as usize));
        assert_eq!(w.freqs(), &before[..]);
        assert_eq!(w.interval(), 1);
    }

    #[test]
    fn interval_stats_match_freqs() {
        let w = FluctuatingWorkload::new(100, 0.85, 1_000, 0.0, 1).with_cost_model(CostModel {
            cost_per_tuple: 2,
            state_per_tuple: 16,
        });
        let iv = w.interval_stats();
        let hot = (0..100).max_by_key(|&i| w.freqs()[i as usize]).unwrap();
        let s = iv.get(Key(hot as u64)).unwrap();
        assert_eq!(s.cost, s.freq * 2);
        assert_eq!(s.mem, s.freq * 16);
    }

    #[test]
    fn tuples_expand_freqs_exactly() {
        let mut w = FluctuatingWorkload::new(50, 0.9, 2_000, 0.0, 11);
        let expect: u64 = w.freqs().iter().sum();
        let tuples = w.tuples();
        assert_eq!(tuples.len() as u64, expect);
        let mut counts = vec![0u64; 50];
        for t in &tuples {
            counts[t.raw() as usize] += 1;
        }
        assert_eq!(&counts[..], w.freqs());
    }

    /// A hash of the frequencies after `steps` fluctuation steps, at
    /// `z = 0.85`, `f = 1`, structure seed 42, against the static
    /// `AssignmentFn::hash_only(4)` — the process `benchmark/` generates
    /// its Zipf inputs with.
    fn freqs_hash_after(k: usize, tuples: u64, steps: usize) -> u64 {
        let hash_only = streambal_core::AssignmentFn::hash_only(4);
        let mut w = FluctuatingWorkload::new(k, 0.85, tuples, 1.0, 42);
        for _ in 0..steps {
            w.advance(4, |key| hash_only.route(key));
        }
        w.freqs().iter().fold(k as u64, |h, &f| mix64(h ^ f))
    }

    /// Pins the generator and `h(k)` together: a change to either that
    /// would change the benchmark's `drift` (K = 2·10⁴) or `wide`
    /// (K = 2·10⁵) inputs fails here.
    #[test]
    fn fifteen_steps_reproduce_the_pinned_frequencies() {
        assert_eq!(freqs_hash_after(20_000, 50_000, 15), 0x44ae_2861_0553_bad8);
        assert_eq!(
            freqs_hash_after(200_000, 250_000, 15),
            0x4510_f5f2_7535_e830
        );
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_keys_panics() {
        ZipfGen::new(0, 0.85);
    }
}
