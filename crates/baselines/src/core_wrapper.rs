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
    use streambal_core::{BalanceParams, IntervalStats, Key, RebalanceStrategy, TaskId};

    #[test]
    fn wraps_mixed_strategy() {
        let mut p = CoreBalancer::new(4, 2, RebalanceStrategy::Mixed, BalanceParams::default());
        assert_eq!(p.name(), "Mixed");
        assert_eq!(p.n_tasks(), 4);
        let mut iv = IntervalStats::new();
        for k in 0..500u64 {
            let cost = if k < 3 { 1000 } else { 2 };
            iv.observe(Key(k), 1, cost, cost);
        }
        let out = p.end_interval(iv);
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
        let skewed = || {
            let mut iv = IntervalStats::new();
            for k in 0..500u64 {
                let cost = if k < 3 { 1000 } else { 2 };
                iv.observe(Key(k), 1, cost, cost);
            }
            iv
        };
        assert!(p.end_interval(skewed()).is_some(), "first violation fires");
        for i in 0..3 {
            assert!(
                p.end_interval(skewed()).is_none(),
                "interval {i} inside the cooldown must be damped"
            );
        }
    }
}
