//! Static consistent hashing — the "Storm" baseline.

use streambal_core::Rebalancer;

use crate::CoreBalancer;

/// Routes every key by consistent hash, never rebalancing ("Storm" in
/// the figures). This is what a stock Storm `fields` grouping does, and
/// the strawman whose skew the paper's Fig. 7 quantifies: the shared
/// table-backed partitioner without a planner, so its table only ever
/// holds what scale and recovery operations pin.
pub fn storm(n_tasks: usize) -> CoreBalancer {
    Rebalancer::hash_only(n_tasks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use streambal_core::{IntervalStats, Key, Partitioner, TaskId};

    #[test]
    fn stable_routing() {
        let mut p = storm(7);
        let before: Vec<TaskId> = (0..500u64).map(|k| p.route(Key(k))).collect();
        // Interval boundaries change nothing.
        assert!(p.end_interval(IntervalStats::new()).is_none());
        let after: Vec<TaskId> = (0..500u64).map(|k| p.route(Key(k))).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn scale_in_reroutes_only_the_victims_keys() {
        let mut p = storm(5);
        let before: Vec<TaskId> = (0..2000u64).map(|k| p.route(Key(k))).collect();
        p.scale_in(TaskId(4), &[]);
        assert_eq!(p.n_tasks(), 4);
        for (k, &old) in before.iter().enumerate() {
            let now = p.route(Key(k as u64));
            assert!(now.index() < 4);
            if old.index() < 4 {
                assert_eq!(now, old, "survivor key {k} churned");
            }
        }
    }

    #[test]
    fn scale_out_moves_keys_only_to_new_task() {
        let mut p = storm(4);
        let before: Vec<TaskId> = (0..2000u64).map(|k| p.route(Key(k))).collect();
        let new = p.add_task();
        for (k, &old) in before.iter().enumerate() {
            let now = p.route(Key(k as u64));
            assert!(now == old || now == new);
        }
    }
}
