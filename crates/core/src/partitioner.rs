//! The partitioning interface: the contract between routing strategies
//! and everything that drives them (the simulator, the engine, the
//! experiment harness).
//!
//! This lives in `streambal-core` — not in the baselines crate — because
//! the trait *is* the paper's framing: any strategy, including the
//! competitors reproduced in `streambal-baselines`, is a routing function
//! plus an interval-boundary rebalance hook (§II). Drivers depend on this
//! crate alone. Every strategy that routes through a table — Storm-style
//! hashing, Readj and the five core algorithms — is one type,
//! [`Rebalancer`], whose `impl Partitioner` is the only table-backed one;
//! the baselines crate implements the trait for shuffle and PKG and names
//! the Storm and Readj configurations.
//!
//! [`Rebalancer`]: crate::Rebalancer

use crate::routing::RoutingTable;
use crate::stats::IntervalStats;
use crate::{Key, RebalanceOutcome, TaskId};

/// A self-contained snapshot of a partitioner's routing function,
/// shippable to source threads (the engine's "tuples router" of Fig. 5
/// holds one of these and receives a fresh one on each Resume). There is
/// one full view per routing shape — table, two-choice, round-robin —
/// plus the table's incremental update.
#[derive(Debug, Clone)]
pub enum RoutingView {
    /// Explicit table over a consistent-hash fallback (Eq. 1), under an
    /// optional hot-key split layer. The hash ring is reconstructed
    /// deterministically from `n_tasks`; the table is the very slab the
    /// holder will probe, so materializing the view moves it.
    TablePlusHash {
        /// The explicit entries.
        table: RoutingTable,
        /// Ring size.
        n_tasks: usize,
        /// Split keys with their replica sets (primary first), sorted by
        /// key — empty unless a key is currently split. Each holder
        /// rotates a split key over its replicas per tuple
        /// (`AssignmentFn` split semantics — cursors are per-holder and
        /// deliberately not part of the view).
        splits: Vec<(Key, Vec<TaskId>)>,
    },
    /// PKG's power-of-two-choices (the view carries no load state; each
    /// holder balances with its own local estimates, as PKG prescribes).
    TwoChoice {
        /// Slot count.
        n_tasks: usize,
    },
    /// Key-oblivious round-robin.
    RoundRobin {
        /// Slot count.
        n_tasks: usize,
    },
    /// An incremental update to a previously shipped
    /// [`RoutingView::TablePlusHash`]: the rebalance's move list, to be
    /// applied on top of the holder's current table
    /// (`AssignmentFn::apply_delta` semantics — a move to the key's hash
    /// destination removes its entry). `O(churn)` to ship and apply where
    /// a full view is `O(table)`; only valid against a holder already
    /// carrying a table view with the same `n_tasks` (full views remain
    /// the resync points: startup, scale-out/in, staleness resyncs).
    TableDelta {
        /// Ring size the delta was computed against (unchanged by it).
        n_tasks: usize,
        /// The rebalance's `(key, new destination)` moves.
        moves: Vec<(Key, TaskId)>,
    },
}

impl RoutingView {
    /// The table view of `assignment`.
    pub fn of_assignment(assignment: &crate::routing::AssignmentFn) -> Self {
        RoutingView::TablePlusHash {
            table: assignment.table().clone(),
            n_tasks: assignment.n_tasks(),
            splits: assignment.splits(),
        }
    }
}

/// A pluggable tuple-routing strategy with an interval-boundary hook.
///
/// `route` is the per-tuple hot path (may mutate internal load estimates,
/// as PKG does). `end_interval` receives the statistics collected during
/// the closing interval and may return a rebalance outcome whose migration
/// plan the engine must then execute.
pub trait Partitioner: Send {
    /// Display name matching the paper's figure legends.
    fn name(&self) -> String;

    /// Current downstream parallelism.
    fn n_tasks(&self) -> usize;

    /// Routes one tuple.
    fn route(&mut self, key: Key) -> TaskId;

    /// Routes a batch of tuples, appending one destination per key to
    /// `out` (cleared first). Must be observationally identical to calling
    /// [`Partitioner::route`] once per key in order — stateful strategies
    /// (PKG's load estimates, shuffle's cursor) advance exactly as they
    /// would per tuple.
    ///
    /// The default delegates to `route`; the table-backed implementation
    /// overrides this with `AssignmentFn::route_batch` so the table probe
    /// sequence pipelines across keys (see `routing` module docs in this
    /// crate).
    fn route_batch(&mut self, keys: &[Key], out: &mut Vec<TaskId>) {
        out.clear();
        out.reserve(keys.len());
        for &k in keys {
            out.push(self.route(k));
        }
    }

    /// Interval boundary: ingest stats, possibly rebalance.
    fn end_interval(&mut self, stats: IntervalStats) -> Option<RebalanceOutcome>;

    /// Adds a downstream instance (scale-out). Default: unsupported.
    fn add_task(&mut self) -> TaskId {
        unimplemented!("{} does not support scale-out", self.name())
    }

    /// State-placement-preserving scale-out: the table-backed
    /// implementation pins hash-churned `live` keys to their old location
    /// so physical state placement stays truthful (see
    /// `AssignmentFn::add_task_pinned`). Default: plain
    /// [`Partitioner::add_task`].
    fn scale_out(&mut self, live: &[Key]) -> TaskId {
        let _ = live;
        self.add_task()
    }

    /// Scale-out with a **pre-placement plan**: adds an instance and
    /// returns `(new_task, moves)`, where each move `(key, holder)` names
    /// a `live` key that now routes to the new instance and the task
    /// currently holding its state. The caller migrates those keys' state
    /// into the new instance inside the scale-out quiescence window
    /// (plan → quiesce → install → resume), so the new slot takes load in
    /// the very interval the decision fired instead of sitting empty
    /// until the next rebalance — the cold-start defect
    /// [`Partitioner::scale_out`]'s pinning trades into.
    ///
    /// Table-backed implementations let hash-churned `live` keys follow
    /// the grown ring to the new slot and report them as moves (the
    /// `add_slot` delta: under consistent hashing churned keys relocate
    /// *only* onto the new slot); keys with explicit table entries stay
    /// put. The default delegates to [`Partitioner::scale_out`] with no
    /// moves — correct for key-oblivious and key-splitting strategies
    /// (shuffle, PKG), whose new instance receives traffic immediately
    /// without any state movement.
    fn scale_out_plan(&mut self, live: &[Key]) -> (TaskId, Vec<(Key, TaskId)>) {
        (self.scale_out(live), Vec::new())
    }

    /// Removes a downstream instance (scale-in). `victim` must be the
    /// highest-numbered task (the engine retires the tail slot, keeping
    /// task ids contiguous); after the call no key may route to it.
    /// Table-backed implementations drop the victim's explicit entries and
    /// shrink the hash ring consistently, pinning any `live` key whose
    /// route would churn between *survivors* so physical state placement
    /// stays truthful — the victim's own state is migrated by the caller
    /// (the engine's drain → retire → re-install protocol, see
    /// `streambal-elastic`). Default: unsupported.
    fn scale_in(&mut self, victim: TaskId, live: &[Key]) {
        let _ = (victim, live);
        unimplemented!("{} does not support scale-in", self.name())
    }

    /// A shippable snapshot of the current routing function.
    fn routing_view(&self) -> RoutingView;

    /// Whether the most recent [`Partitioner::end_interval`] rebalance
    /// was installed as an incremental delta (moves applied in place)
    /// rather than a table swap. When true, the driver may ship sources a
    /// [`RoutingView::TableDelta`] of the outcome's moves instead of a
    /// full [`Partitioner::routing_view`] — the two leave table-view
    /// holders routing identically, because the holder's table and the
    /// partitioner's were equal before the rebalance and receive the same
    /// mutation. Default false: strategies that swap (or don't own a
    /// table) always need the full view.
    fn last_install_was_delta(&self) -> bool {
        false
    }

    /// Whether the strategy preserves key-grouping semantics (all tuples
    /// of a key on one worker). PKG does not — stateful aggregation then
    /// needs partial/merge topology support, and joins are impossible.
    fn preserves_key_semantics(&self) -> bool {
        true
    }

    /// A worker died without draining: pin every explicit table entry
    /// routed to `dead` onto a surviving task and return the applied
    /// `(key, new destination)` moves, for shipping to sources as a
    /// delta. Survivors are chosen by [`crate::routing::next_live`] from
    /// each key's hash home — the same rule sources use to divert
    /// hash-fallback keys at send time, so every view holder agrees
    /// where the dead slot's traffic lands. The parallelism does **not**
    /// shrink: slot ids stay dense and a later scale-out can re-provision
    /// the slot. `is_dead` must report every currently-dead slot,
    /// `dead` included.
    ///
    /// Default: no routing table to re-pin, no moves — key-oblivious and
    /// key-splitting strategies (shuffle, PKG) route around dead slots
    /// at the source alone.
    fn reroute_dead(
        &mut self,
        dead: TaskId,
        is_dead: &dyn Fn(usize) -> bool,
    ) -> Vec<(Key, TaskId)> {
        let _ = (dead, is_dead);
        Vec::new()
    }

    /// Applies an explicit `(key, destination)` move list to the routing
    /// table (`AssignmentFn::apply_delta` semantics), returning `true`
    /// when the strategy held a table to patch. The rollback path of an
    /// aborted migration uses this to pin the plan's keys back onto the
    /// workers still holding their state; `false` tells the caller the
    /// strategy routes without a table, so there is nothing to undo.
    /// Default: `false`.
    fn apply_moves(&mut self, moves: &[(Key, TaskId)]) -> bool {
        let _ = moves;
        false
    }

    /// Flags `key` as hot, salting it across `replicas` (primary first;
    /// at least two distinct slots). Returns `true` when the strategy
    /// installed the split — after which [`Partitioner::routing_view`]
    /// must carry it — and `false` when it declines. The default
    /// declines: key-oblivious and key-spreading strategies (shuffle,
    /// PKG) already spread every key, so splitting is meaningless for
    /// them, and the split/unsplit protocol op simply no-ops.
    fn split_key(&mut self, key: Key, replicas: &[TaskId]) -> bool {
        let _ = (key, replicas);
        false
    }

    /// Dissolves `key`'s split: the key reverts to whole-key routing and
    /// the caller is responsible for consolidating replica state onto the
    /// key's post-unsplit destination (the engine's unsplit op migrates
    /// every non-primary replica's partial state there). Returns the
    /// replica set that was installed, or `None` when the key was not
    /// split (the default).
    fn unsplit_key(&mut self, key: Key) -> Option<Vec<TaskId>> {
        let _ = key;
        None
    }

    /// The currently split keys with their replica sets, sorted by key.
    /// Default: none.
    fn splits(&self) -> Vec<(Key, Vec<TaskId>)> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BalanceParams, RebalanceStrategy, Rebalancer};

    /// A minimal trait impl, checking the default hooks compile and act
    /// as documented.
    struct Fixed(usize);

    impl Partitioner for Fixed {
        fn name(&self) -> String {
            "Fixed".into()
        }

        fn n_tasks(&self) -> usize {
            self.0
        }

        fn route(&mut self, key: Key) -> TaskId {
            TaskId::from(key.raw() as usize % self.0)
        }

        fn end_interval(&mut self, _stats: IntervalStats) -> Option<RebalanceOutcome> {
            None
        }

        fn routing_view(&self) -> RoutingView {
            RoutingView::RoundRobin { n_tasks: self.0 }
        }
    }

    #[test]
    fn default_hooks() {
        let mut p = Fixed(3);
        assert!(p.preserves_key_semantics());
        assert_eq!(p.route(Key(7)), TaskId(1));
        assert!(p.end_interval(IntervalStats::new()).is_none());
        // Split hooks default to declining: no split installs, nothing
        // to dissolve, no splits reported.
        assert!(!p.split_key(Key(1), &[TaskId(0), TaskId(1)]));
        assert_eq!(p.unsplit_key(Key(1)), None);
        assert!(p.splits().is_empty());
    }

    #[test]
    fn default_route_batch_matches_per_key_order() {
        let mut p = Fixed(3);
        let keys: Vec<Key> = (0..50u64).map(Key).collect();
        let mut out = vec![TaskId(7); 4]; // stale content must be cleared
        p.route_batch(&keys, &mut out);
        let expect: Vec<TaskId> = keys.iter().map(|&k| Fixed(3).route(k)).collect();
        assert_eq!(out, expect);
    }

    #[test]
    #[should_panic(expected = "does not support scale-out")]
    fn default_scale_out_is_unsupported() {
        Fixed(2).scale_out(&[Key(1)]);
    }

    /// The default plan delegates to `scale_out` and pre-places nothing.
    #[test]
    fn default_scale_out_plan_has_no_moves() {
        struct Growable(usize);
        impl Partitioner for Growable {
            fn name(&self) -> String {
                "Growable".into()
            }
            fn n_tasks(&self) -> usize {
                self.0
            }
            fn route(&mut self, key: Key) -> TaskId {
                TaskId::from(key.raw() as usize % self.0)
            }
            fn end_interval(&mut self, _stats: IntervalStats) -> Option<RebalanceOutcome> {
                None
            }
            fn add_task(&mut self) -> TaskId {
                self.0 += 1;
                TaskId::from(self.0 - 1)
            }
            fn routing_view(&self) -> RoutingView {
                RoutingView::RoundRobin { n_tasks: self.0 }
            }
        }
        let mut p = Growable(2);
        let (new, moves) = p.scale_out_plan(&[Key(1), Key(2)]);
        assert_eq!(new, TaskId(2));
        assert!(moves.is_empty());
        assert_eq!(p.n_tasks(), 3);
    }

    #[test]
    #[should_panic(expected = "does not support scale-in")]
    fn default_scale_in_is_unsupported() {
        Fixed(2).scale_in(TaskId(1), &[Key(1)]);
    }

    /// The one table view carries whatever splits exist — none, usually.
    #[test]
    fn of_assignment_carries_splits_only_when_present() {
        let mut a = crate::routing::AssignmentFn::hash_only(3);
        let splits_of = |a: &crate::routing::AssignmentFn| match RoutingView::of_assignment(a) {
            RoutingView::TablePlusHash {
                n_tasks, splits, ..
            } => {
                assert_eq!(n_tasks, 3);
                splits
            }
            v => panic!("expected TablePlusHash, got {v:?}"),
        };
        assert_eq!(splits_of(&a), vec![]);
        a.set_split(Key(1), &[TaskId(0), TaskId(2)]);
        assert_eq!(splits_of(&a), vec![(Key(1), vec![TaskId(0), TaskId(2)])]);
    }

    /// The crate's own Rebalancer is usable through the trait (drivers
    /// can depend on core alone).
    #[test]
    fn rebalancer_satisfies_contract_via_view() {
        let r = Rebalancer::new(4, 1, RebalanceStrategy::Mixed, BalanceParams::default());
        let p: &dyn Partitioner = &r;
        assert_eq!((p.name().as_str(), p.n_tasks()), ("Mixed", 4));
        match p.routing_view() {
            RoutingView::TablePlusHash {
                table,
                n_tasks,
                splits,
            } => {
                assert_eq!(n_tasks, 4);
                assert!(table.is_empty() && splits.is_empty());
            }
            v => panic!("expected TablePlusHash, got {v:?}"),
        }
    }
}
