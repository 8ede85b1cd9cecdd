//! The name the harness knows the table-backed partitioner by.

/// Storm, Readj and Mixed / MinTable / MinMig / MixedBF / Simple are all
/// this one type — `streambal-core`'s [`Rebalancer`](streambal_core::Rebalancer),
/// which implements [`Partitioner`](crate::Partitioner) itself — built by
/// [`storm`](crate::storm), [`readj`](crate::readj) and
/// `CoreBalancer::new(n_tasks, window, strategy, params)` respectively.
pub type CoreBalancer = streambal_core::Rebalancer;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Partitioner;
    use streambal_core::RebalanceStrategy::{MinMig, MinTable, Mixed};
    use streambal_core::{BalanceParams, IntervalStats, Key, KeyStat, RebalanceStrategy, TaskId};

    /// Three heavy keys over a light tail: any four-task hash skews.
    fn skewed() -> IntervalStats {
        (0..500u64)
            .map(|k| {
                let cost = if k < 3 { 1000 } else { 2 };
                (Key(k), KeyStat::new(1, cost, cost))
            })
            .collect()
    }

    #[test]
    fn wraps_mixed_strategy() {
        let mut p = CoreBalancer::new(4, 2, RebalanceStrategy::Mixed, BalanceParams::default());
        assert_eq!(p.name(), "Mixed");
        assert_eq!(p.n_tasks(), 4);
        let out = p.end_interval(skewed());
        assert!(out.is_some(), "skew must trigger the rebalancer");
        assert_eq!(p.rebalances(), 1);
    }

    #[test]
    fn scale_out_passthrough() {
        let mut p = CoreBalancer::new(2, 1, RebalanceStrategy::MinTable, BalanceParams::default());
        assert_eq!(p.add_task(), TaskId(2));
        assert_eq!(p.n_tasks(), 3);
    }

    /// The pre-placement plan flows through the trait: churned live
    /// keys route to the new task, each move naming the old holder.
    #[test]
    fn scale_out_plan_passthrough() {
        let mut p = CoreBalancer::new(3, 1, RebalanceStrategy::Mixed, BalanceParams::default());
        let live: Vec<Key> = (0..1_500u64).map(Key).collect();
        let before: Vec<TaskId> = live.iter().map(|&k| p.route(k)).collect();
        let (new, moves) = p.scale_out_plan(&live);
        assert_eq!(new, TaskId(3));
        assert!(!moves.is_empty(), "a 1500-key population must churn");
        for &(k, holder) in &moves {
            assert_eq!(p.route(k), new);
            let idx = live.iter().position(|&x| x == k).unwrap();
            assert_eq!(holder, before[idx]);
        }
    }

    /// A trigger cooldown damps the rebalancer behind the trait: after a plan
    /// fires, nothing may fire for `cooldown` intervals even under
    /// sustained heavy skew.
    #[test]
    fn trigger_policy_passthrough_damps_rebalances() {
        use streambal_core::TriggerPolicy;
        let mut p = CoreBalancer::new(4, 1, RebalanceStrategy::Mixed, BalanceParams::default())
            .with_trigger_policy(TriggerPolicy {
                cooldown: 3,
                ..TriggerPolicy::default()
            });
        assert!(p.end_interval(skewed()).is_some(), "first violation fires");
        for i in 0..3 {
            assert!(
                p.end_interval(skewed()).is_none(),
                "interval {i} inside the cooldown must be damped"
            );
        }
    }

    /// A round absorbs its workers' shards in arrival order, and that
    /// order cannot change a plan: four seeded worker shards, keys
    /// repeating across them, absorbed in all 24 orders two rounds
    /// running, give one move list and one table per round.
    #[test]
    fn shard_arrival_order_cannot_change_a_plan() {
        let mut x = 0x5EED_u64;
        let mut draw = || {
            // xorshift64
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (key, freq) = (if x % 10 < 3 { x % 5 } else { x % 400 }, 1 + (x >> 32) % 8);
            (Key(key), KeyStat::new(freq, freq, 8))
        };
        let shards: Vec<IntervalStats> =
            (0..4).map(|_| (0..300).map(|_| draw()).collect()).collect();
        for strategy in [MinTable, MinMig, Mixed] {
            let plans: Vec<_> = (0..24usize)
                .map(|mut i| {
                    // The i-th order, read off i's factorial digits.
                    let mut left: Vec<usize> = (0..4).collect();
                    let order: Vec<usize> = (1..=4)
                        .rev()
                        .map(|n| {
                            let at = i % n;
                            i /= n;
                            left.remove(at)
                        })
                        .collect();
                    let mut p = CoreBalancer::new(4, 2, strategy, BalanceParams::default());
                    let mut round = || {
                        let mut stats = IntervalStats::new();
                        order.iter().for_each(|&s| stats.absorb(shards[s].clone()));
                        let out = p.end_interval(stats)?;
                        Some((out.plan.moves().to_vec(), out.table))
                    };
                    vec![round(), round()]
                })
                .collect();
            assert!(plans[0][0]
                .as_ref()
                .is_some_and(|(moves, _)| !moves.is_empty()));
            for plan in &plans {
                assert_eq!(plan, &plans[0], "{strategy:?}");
            }
        }
    }
}
