//! Property tests on the statistics report: a report absorbed from sealed
//! worker accumulators reads like a merged map of the same observations,
//! and folds into the window exactly like one shard collected from them.

use std::collections::BTreeMap;

use proptest::prelude::*;
use streambal_core::{AssignmentFn, IntervalStats, Key, KeyStat, StatsAccumulator, StatsWindow};

const DOMAIN: u64 = 40;
const TASKS: usize = 3;
/// CPU units per tuple: a worker's accumulator prices every key at its
/// tuple count times this.
const COST_PER_TUPLE: u64 = 3;

/// One observation: `(key, freq, mem, shard, huge)`; `huge == 0` (one in
/// sixteen) adds 2³² to the state bytes, so sums cross 32 bits.
type Obs = (u64, u64, u64, usize, u8);

/// A shard count of one to five and observations spread over them; keys
/// repeat within and across shards.
fn arb_observations() -> impl Strategy<Value = (usize, Vec<Obs>)> {
    (1usize..=5).prop_flat_map(|shards| {
        (
            Just(shards),
            proptest::collection::vec((0..DOMAIN, 1u64..5, 0u64..30, 0..shards, 0u8..16), 0..120),
        )
    })
}

fn stat(&(_, freq, mem, _, huge): &Obs) -> KeyStat {
    let mem = mem + (u64::from(huge == 0) << 32);
    KeyStat::new(freq, freq * COST_PER_TUPLE, mem)
}

/// The oracle: every observation summed per key.
fn merged(obs: &[Obs]) -> BTreeMap<Key, KeyStat> {
    let mut map = BTreeMap::new();
    for o in obs {
        *map.entry(Key(o.0)).or_default() += stat(o);
    }
    map
}

/// The observations collected into one report, repeated keys and all.
fn collected(obs: &[Obs]) -> IntervalStats {
    obs.iter().map(|o| (Key(o.0), stat(o))).collect()
}

/// The observations as per-shard worker accumulators, sealed and absorbed
/// into one report. Odd shards answer with a peek copy, as a
/// provisional peek does.
fn sharded(shards: usize, obs: &[Obs]) -> IntervalStats {
    let mut accs = vec![StatsAccumulator::new(COST_PER_TUPLE); shards];
    for o in obs {
        let s = stat(o);
        accs[o.3].add(Key(o.0), s.freq, s.mem);
    }
    let mut report = IntervalStats::new();
    for (i, acc) in accs.iter_mut().enumerate() {
        if i % 2 == 1 {
            report.absorb(acc.peek());
        } else {
            report.absorb(acc.seal());
            assert!(acc.is_empty(), "sealing empties the accumulator");
        }
    }
    report
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

    /// Every reader sums a key's shards, and yields each key once — for
    /// N sealed shards and for one collected shard alike.
    #[test]
    fn sharded_report_reads_like_the_merged_map((shards, obs) in arb_observations()) {
        let oracle = merged(&obs);
        let expected: Vec<(Key, KeyStat)> = oracle.iter().map(|(&k, &s)| (k, s)).collect();
        let total: u64 = oracle.values().map(|s| s.cost).sum();
        for report in [sharded(shards, &obs), collected(&obs)] {
            prop_assert_eq!(&sorted(&report), &expected);
            for k in 0..=DOMAIN {
                prop_assert_eq!(report.get(Key(k)), oracle.get(&Key(k)).copied());
            }
            prop_assert_eq!(report.len(), oracle.len());
            prop_assert_eq!(report.is_empty(), oracle.is_empty());
            prop_assert_eq!(report.total_cost(), total);
        }
    }

    /// Folded into a window — closing, or provisional and then superseded
    /// by its closing report — one collected shard and N sealed shards
    /// give identical records, loads and windowed memory.
    #[test]
    fn sharded_report_folds_like_the_merged_map(
        (s0, old) in arb_observations(),
        (s1, early) in arb_observations(),
        (s2, closing) in arb_observations(),
    ) {
        let f = AssignmentFn::hash_only(TASKS);
        let mut by_one = StatsWindow::new(2);
        let mut by_shards = StatsWindow::new(2);
        by_one.push(collected(&old), &f);
        by_shards.push(sharded(s0, &old), &f);
        assert_same_window(&by_one, &by_shards);
        by_one.push(collected(&early).into_provisional(), &f);
        by_shards.push(sharded(s1, &early).into_provisional(), &f);
        assert_same_window(&by_one, &by_shards);
        by_one.push(collected(&closing), &f);
        by_shards.push(sharded(s2, &closing), &f);
        assert_same_window(&by_one, &by_shards);
    }
}
