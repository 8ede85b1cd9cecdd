//! Adapter exposing `streambal-core`'s strategies through [`Partitioner`].

use streambal_core::{
    BalanceParams, IntervalStats, Key, RebalanceOutcome, RebalanceStrategy, Rebalancer, TaskId,
};

use crate::{Partitioner, RoutingView};

/// Wraps a [`Rebalancer`] so Mixed / MinTable / MinMig / MixedBF / Simple
/// plug into the same simulator and runtime slots as the baselines.
#[derive(Debug)]
pub struct CoreBalancer {
    inner: Rebalancer,
    strategy: RebalanceStrategy,
}

impl CoreBalancer {
    /// Creates a core-strategy partitioner.
    pub fn new(
        n_tasks: usize,
        window: usize,
        strategy: RebalanceStrategy,
        params: BalanceParams,
    ) -> Self {
        CoreBalancer {
            inner: Rebalancer::new(n_tasks, window, strategy, params),
            strategy,
        }
    }

    /// The wrapped rebalancer (for inspection).
    pub fn rebalancer(&self) -> &Rebalancer {
        &self.inner
    }

    /// Overrides the rebalance trigger damping (see
    /// [`streambal_core::TriggerPolicy`]): a cooldown or
    /// consecutive-violation requirement sets the strategy's effective
    /// *rebalance period*, which is exactly the cold-start lag a pinned
    /// scale-out pays while the new instance waits for the next plan.
    pub fn with_trigger_policy(mut self, trigger: streambal_core::TriggerPolicy) -> Self {
        self.inner = self.inner.with_trigger_policy(trigger);
        self
    }
}

impl Partitioner for CoreBalancer {
    fn name(&self) -> String {
        self.strategy.name().into()
    }

    fn n_tasks(&self) -> usize {
        self.inner.assignment().n_tasks()
    }

    #[inline]
    fn route(&mut self, key: Key) -> TaskId {
        self.inner.route(key)
    }

    fn route_batch(&mut self, keys: &[Key], out: &mut Vec<TaskId>) {
        self.inner.route_batch(keys, out);
    }

    fn end_interval(&mut self, stats: IntervalStats) -> Option<RebalanceOutcome> {
        self.inner.end_interval(stats)
    }

    fn add_task(&mut self) -> TaskId {
        self.inner.add_task()
    }

    fn scale_out(&mut self, live: &[Key]) -> TaskId {
        self.inner.scale_out(live.iter().copied())
    }

    fn scale_out_plan(&mut self, live: &[Key]) -> (TaskId, Vec<(Key, TaskId)>) {
        self.inner.scale_out_plan(live.iter().copied())
    }

    fn scale_in(&mut self, victim: TaskId, live: &[Key]) {
        self.inner.scale_in(victim, live.iter().copied());
    }

    fn routing_view(&self) -> RoutingView {
        RoutingView::of_assignment(self.inner.assignment())
    }

    fn last_install_was_delta(&self) -> bool {
        self.inner.last_install_was_delta()
    }

    fn reroute_dead(
        &mut self,
        dead: TaskId,
        is_dead: &dyn Fn(usize) -> bool,
    ) -> Vec<(Key, TaskId)> {
        self.inner.reroute_dead(dead, is_dead)
    }

    fn apply_moves(&mut self, moves: &[(Key, TaskId)]) -> bool {
        self.inner.apply_moves(moves);
        true
    }

    fn split_key(&mut self, key: Key, replicas: &[TaskId]) -> bool {
        self.inner.split_key(key, replicas)
    }

    fn unsplit_key(&mut self, key: Key) -> Option<Vec<TaskId>> {
        self.inner.unsplit_key(key)
    }

    fn splits(&self) -> Vec<(Key, Vec<TaskId>)> {
        self.inner.splits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(out.is_some(), "skew must trigger the wrapped rebalancer");
        assert_eq!(p.rebalancer().rebalances(), 1);
    }

    #[test]
    fn scale_out_passthrough() {
        let mut p = CoreBalancer::new(2, 1, RebalanceStrategy::MinTable, BalanceParams::default());
        assert_eq!(p.add_task(), TaskId(2));
        assert_eq!(p.n_tasks(), 3);
    }

    /// The pre-placement plan flows through the wrapper: churned live
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

    /// A trigger cooldown damps the wrapped rebalancer: after a plan
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
