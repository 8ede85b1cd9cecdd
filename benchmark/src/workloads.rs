//! The four workloads: frozen constants and seeded input generation.
//!
//! Every constant here is frozen — calibrated once on the seed commit
//! (log in `README.md`) and never derived at run time, so two commits
//! are always offered the same load. Inputs are generated before any
//! timing starts and depend on `--seed` alone: the engine receives only
//! the generated tuples.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use streambal_core::{AssignmentFn, Key};
use streambal_hashring::mix64;
use streambal_workloads::{ChurnWorkload, FluctuatingWorkload};

/// Keyed-stage parallelism of every workload (`n_workers = max_workers`).
pub const N_WORKERS: usize = 4;
/// Open-loop period: interval `i` is released no earlier than `i·T`.
pub const T_MS: u64 = 250;
/// Latency limit of `goodput_frac`: a tuple completed later than this
/// after it was due (or never) is a miss.
pub const LAT_LIMIT_MS: u64 = 500;
/// Share of a run's intervals excluded as warm-up (rebalancer settling).
pub const WARMUP_FRAC: f64 = 0.1;
/// Seeds the *structure* of the Zipf workloads — which key holds which
/// popularity rank, and which task each fluctuation step loads — while
/// `--seed` drives the order tuples arrive in. The rebalancer's
/// behaviour depends on the instance (measured on the seed commit:
/// ±6–11 % `sat_tps` between instances, two distinct regimes on `wide`),
/// which no admissible regression bound can absorb; a different
/// instance is a different workload and changes like any other frozen
/// constant, deliberately.
pub const STRUCTURE_SEED: u64 = 42;

/// What the generator produces per interval.
#[derive(Debug, Clone, Copy)]
pub enum Input {
    /// `FluctuatingWorkload`: `k` keys, Zipf skew `z`, fluctuation `f`
    /// (the paper's Tab. II generator; `f = 0` is static).
    Zipf { k: usize, z: f64, f: f64 },
    /// `ChurnWorkload`: `hot_n` fresh hot keys per interval holding
    /// `hot_share`, plus one dominant key at `dom_share` of the volume
    /// during intervals [25 %, 75 %) of the run.
    Burst {
        k: usize,
        hot_n: usize,
        hot_share: f64,
        dom_share: f64,
    },
}

/// One workload: its input shape and frozen load constants.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line: which layers this workload lets be the limit.
    pub why: &'static str,
    pub input: Input,
    /// Service cost of a paced worker, ns per tuple: the worker has a
    /// fixed capacity of `1/pace` tuples/s. Applies to the `sat` and
    /// `open` runs, and to `traced` where there is no CPU-bound variant.
    pub pace_ns: u64,
    /// Offered rate of the `open` run, tuples/s. An interval carries
    /// `open_rate · T` tuples in every run kind.
    pub open_rate: u64,
    /// Sizes the `sat` run's fixed interval count so it lasts about the
    /// requested time on the seed commit; never a target.
    pub sat_nominal_tps: u64,
    /// `Some(rate)`: the workload also runs CPU-bound — its `budget` and
    /// `traced` runs are unpaced and sized by `rate`. `None`: worker
    /// capacity is the limit by design, `traced` repeats `sat` with the
    /// probes on and the `budget.*` numbers are `sat`'s.
    pub cpu_nominal_tps: Option<u64>,
    /// Routing-table bound `Amax`.
    pub table_max: usize,
    /// Distinct intervals pre-generated and played back and forth
    /// (0 = the whole run is generated, no replay).
    pub distinct: usize,
    /// `Some(capacity)` turns the hot-key split policy, partial emission
    /// and the merge stage on; `capacity` is the `HotKeyPolicy` capacity,
    /// the tuples one paced worker sustains per interval (`T / c`).
    pub split_capacity: Option<f64>,
}

impl Workload {
    /// Tuples per interval.
    pub fn interval_tuples(&self) -> u64 {
        self.open_rate * T_MS / 1000
    }
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "plane",
        why: "static skew (K=20k, z=0.85, f=0) at the highest tuple rate (paced 2us/tuple, 2M t/s ideal): the data plane moves the most tuples here; rebalance, migration and merge do almost nothing",
        input: Input::Zipf {
            k: 20_000,
            z: 0.85,
            f: 0.0,
        },
        pace_ns: 2_000,
        open_rate: 1_000_000,
        sat_nominal_tps: 1_800_000,
        cpu_nominal_tps: Some(7_000_000),
        table_max: 3_000,
        distinct: 16,
        split_capacity: None,
    },
    Workload {
        name: "drift",
        why: "moving skew (f=1.0, paced 10us/tuple), the paper's scenario: theta, plan time and pause/migrate windows set throughput and latency while the data plane idles",
        input: Input::Zipf {
            k: 20_000,
            z: 0.85,
            f: 1.0,
        },
        pace_ns: 10_000,
        open_rate: 200_000,
        sat_nominal_tps: 310_000,
        cpu_nominal_tps: None,
        table_max: 3_000,
        distinct: 32,
        split_capacity: None,
    },
    Workload {
        name: "burst",
        why: "one key hotter than a worker (0.6 share mid-run, paced 10us/tuple): only the split layer, elastic policy, merge plane and unsplit consolidation can help; the merge stage is live only here",
        input: Input::Burst {
            k: 2_000,
            hot_n: 40,
            hot_share: 0.1,
            dom_share: 0.6,
        },
        pace_ns: 10_000,
        open_rate: 300_000,
        sat_nominal_tps: 360_000,
        cpu_nominal_tps: None,
        table_max: 3_000,
        distinct: 0,
        split_capacity: Some(25_000.0),
    },
    Workload {
        name: "wide",
        why: "largest key domain (K=200k, table_max=100k, f=1.0, paced 2us/tuple): operator state out of cache, statistics rounds and plan generation over tens of thousands of live keys decide the result",
        input: Input::Zipf {
            k: 200_000,
            z: 0.85,
            f: 1.0,
        },
        pace_ns: 2_000,
        open_rate: 1_000_000,
        sat_nominal_tps: 1_750_000,
        cpu_nominal_tps: Some(4_200_000),
        table_max: 100_000,
        distinct: 16,
        split_capacity: None,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The pre-generated input of one run.
#[derive(Debug)]
pub struct Inputs {
    /// The distinct intervals, each a shuffled key sequence.
    pub intervals: Vec<Vec<Key>>,
    /// Keys are dense in `0..key_space`.
    pub key_space: usize,
    /// Order-sensitive hash of every generated key, printed with the
    /// results: equal seeds must give equal hashes.
    pub hash: u64,
    /// `[from, until)` of the dominant-key burst, in run intervals.
    pub burst: Option<(u64, u64)>,
}

impl Inputs {
    /// The keys of run interval `i`: distinct intervals are played back
    /// and forth (0, 1, …, D−1, D−2, …, 1, 0, 1, …) so every consecutive
    /// pair differs by exactly one generator step, in either direction.
    pub fn play(&self, i: u64) -> &[Key] {
        &self.intervals[self.play_index(i)]
    }

    fn play_index(&self, i: u64) -> usize {
        let d = self.intervals.len() as u64;
        if d == 1 {
            return 0;
        }
        let p = i % (2 * (d - 1));
        (if p < d { p } else { 2 * (d - 1) - p }) as usize
    }

    /// Per-key reference counts of the first `n_fed` run intervals.
    pub fn reference(&self, n_fed: u64) -> Vec<u64> {
        let mut plays = vec![0u64; self.intervals.len()];
        for i in 0..n_fed {
            plays[self.play_index(i)] += 1;
        }
        let mut counts = vec![0u64; self.key_space];
        for (keys, &n) in self.intervals.iter().zip(&plays) {
            if n > 0 {
                for k in keys {
                    counts[k.raw() as usize] += n;
                }
            }
        }
        counts
    }
}

/// Generates the inputs of a run of `n_intervals` intervals.
///
/// `drift`/`wide` advance the fluctuation process against the *static*
/// `AssignmentFn::hash_only(4)`, so the inputs do not depend on the
/// partitioner under test. The Zipf workloads take their per-interval
/// key counts from [`STRUCTURE_SEED`] and their arrival order from
/// `seed`; `burst` (steady across instances) is generated from `seed`
/// alone.
pub fn generate(w: &Workload, seed: u64, n_intervals: u64) -> Inputs {
    let tuples = w.interval_tuples();
    let distinct = if w.distinct == 0 {
        n_intervals as usize
    } else {
        w.distinct.min(n_intervals.max(1) as usize)
    };
    let mut intervals: Vec<Vec<Key>> = Vec::with_capacity(distinct);
    let (key_space, burst) = match w.input {
        Input::Zipf { k, z, f } => {
            let hash_only = AssignmentFn::hash_only(N_WORKERS);
            let mut g = FluctuatingWorkload::new(k, z, tuples, f, STRUCTURE_SEED);
            let mut rng = StdRng::seed_from_u64(seed);
            for i in 0..distinct {
                if i > 0 {
                    g.advance(N_WORKERS, |key| hash_only.route(key));
                }
                let mut keys: Vec<Key> = Vec::with_capacity(tuples as usize);
                for (key, &n) in g.freqs().iter().enumerate() {
                    keys.extend(std::iter::repeat_n(Key(key as u64), n as usize));
                }
                for at in (1..keys.len()).rev() {
                    keys.swap(at, rng.gen_range(0..=at));
                }
                intervals.push(keys);
            }
            (k, None)
        }
        Input::Burst {
            k,
            hot_n,
            hot_share,
            dom_share,
        } => {
            // Outside the churn domain, so the burst volume is exactly
            // attributable to this one key.
            let dom = Key(k as u64);
            let from = n_intervals / 4;
            let until = (n_intervals * 3 / 4).max(from + 1);
            let mut g = ChurnWorkload::new(k, tuples, hot_n, hot_share, seed)
                .with_dominant_burst(dom, dom_share, from, until);
            for i in 0..distinct {
                if i > 0 {
                    g.advance();
                }
                intervals.push(g.tuples());
            }
            (k + 1, Some((from, until)))
        }
    };
    let mut hash = seed;
    for keys in &intervals {
        for k in keys {
            hash = mix64(hash ^ k.raw());
        }
    }
    Inputs {
        intervals,
        key_space,
        hash,
        burst,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn play_order_is_back_and_forth() {
        let inputs = Inputs {
            intervals: (0..4u64).map(|i| vec![Key(i)]).collect(),
            key_space: 4,
            hash: 0,
            burst: None,
        };
        let order: Vec<u64> = (0..9).map(|i| inputs.play(i)[0].raw()).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 2, 1, 0, 1, 2]);
        // The reference counts follow the same order.
        assert_eq!(inputs.reference(9), vec![2, 3, 3, 1]);
    }

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        for w in &WORKLOADS {
            let small = Workload {
                open_rate: 8_000,
                ..*w
            };
            let a = generate(&small, 7, 6);
            let b = generate(&small, 7, 6);
            let c = generate(&small, 8, 6);
            assert_eq!(a.intervals, b.intervals, "{}", w.name);
            assert_eq!(a.hash, b.hash, "{}", w.name);
            assert_ne!(a.hash, c.hash, "{}", w.name);
        }
    }
}
