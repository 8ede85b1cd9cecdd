//! Property tests on the statistics report: a report absorbed from sealed
//! shards reads, and folds into the window, exactly like one map built by
//! `observe` over the same observations.

use proptest::prelude::*;
use streambal_core::{AssignmentFn, IntervalStats, Key, KeyStat, StatsWindow};

const DOMAIN: u64 = 40;
const TASKS: usize = 3;

/// One observation: `(key, freq, cost, mem, shard)`.
type Obs = (u64, u64, u64, u64, usize);

/// A shard count of one to five and observations spread over them; keys
/// repeat within and across shards.
fn arb_observations() -> impl Strategy<Value = (usize, Vec<Obs>)> {
    (1usize..=5).prop_flat_map(|shards| {
        (
            Just(shards),
            proptest::collection::vec((0..DOMAIN, 1u64..5, 0u64..50, 0u64..30, 0..shards), 0..120),
        )
    })
}

/// The observations as one `observe`-built map, and as per-shard
/// accumulators sealed and absorbed into one report. Odd shards answer
/// with a sealed copy, as a provisional peek does.
fn both(shards: usize, obs: &[Obs]) -> (IntervalStats, IntervalStats) {
    let mut map = IntervalStats::new();
    let mut accs = vec![IntervalStats::new(); shards];
    for &(k, freq, cost, mem, shard) in obs {
        map.observe(Key(k), freq, cost, mem);
        accs[shard].observe(Key(k), freq, cost, mem);
    }
    let mut sharded = IntervalStats::new();
    for (i, acc) in accs.iter_mut().enumerate() {
        if i % 2 == 1 {
            sharded.absorb(acc.sealed_copy());
        } else {
            sharded.absorb(acc.seal());
            assert!(acc.is_empty(), "sealing empties the accumulator");
        }
    }
    (map, sharded)
}

fn sorted(stats: &IntervalStats) -> Vec<(Key, KeyStat)> {
    let mut out: Vec<(Key, KeyStat)> = stats.iter().collect();
    out.sort_unstable_by_key(|&(k, _)| k);
    out
}

fn assert_same_window(a: &StatsWindow, b: &StatsWindow) {
    assert_eq!(a.records(), b.records());
    assert_eq!(a.loads(), b.loads());
    for k in 0..DOMAIN {
        assert_eq!(a.windowed_mem(Key(k)), b.windowed_mem(Key(k)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every reader sums a key's shards, and yields each key once; and
    /// observing into a sealed report adds up as into the map.
    #[test]
    fn sharded_report_reads_like_the_merged_map((shards, obs) in arb_observations()) {
        let (mut map, mut sharded) = both(shards, &obs);
        let listed = sorted(&sharded);
        prop_assert_eq!(&listed, &sorted(&map));
        prop_assert!(listed.windows(2).all(|w| w[0].0 < w[1].0), "a key listed twice");
        for k in 0..=DOMAIN {
            prop_assert_eq!(sharded.get(Key(k)), map.get(Key(k)));
        }
        prop_assert_eq!(sharded.len(), map.len());
        prop_assert_eq!(sharded.is_empty(), map.is_empty());
        prop_assert_eq!(sharded.total_cost(), map.total_cost());
        map.observe(Key(0), 1, 2, 3);
        sharded.observe(Key(0), 1, 2, 3);
        prop_assert_eq!(sorted(&sharded), sorted(&map));
    }

    /// Folded into a window — closing, or provisional and then superseded
    /// by its closing report — both shapes give identical records, loads
    /// and windowed memory.
    #[test]
    fn sharded_report_folds_like_the_merged_map(
        (s0, old) in arb_observations(),
        (s1, early) in arb_observations(),
        (s2, closing) in arb_observations(),
    ) {
        let f = AssignmentFn::hash_only(TASKS);
        let mut by_map = StatsWindow::new(2);
        let mut by_shards = StatsWindow::new(2);
        let (map, sharded) = both(s0, &old);
        by_map.push(map, &f);
        by_shards.push(sharded, &f);
        assert_same_window(&by_map, &by_shards);
        let (map, sharded) = both(s1, &early);
        by_map.push(map.into_provisional(), &f);
        by_shards.push(sharded.into_provisional(), &f);
        assert_same_window(&by_map, &by_shards);
        let (map, sharded) = both(s2, &closing);
        by_map.push(map, &f);
        by_shards.push(sharded, &f);
        assert_same_window(&by_map, &by_shards);
    }
}
