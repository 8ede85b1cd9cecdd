//! The source-side router: a materialized [`RoutingView`].

use streambal_core::{AssignmentFn, Key, RoutingView, TaskId};

/// Evaluates a routing view per tuple on the source thread.
///
/// For [`RoutingView::TablePlusHash`] this is exactly Eq. 1 under the
/// split layer: a table probe with a consistent-hash fallback (the view's
/// table is moved in, and the ring is rebuilt deterministically from
/// `n_tasks`, so every holder of the view routes identically). For PKG
/// it keeps local load estimates; for shuffle, a round-robin cursor.
#[derive(Debug)]
pub enum SourceRouter {
    /// Mixed table + hash (core strategies, Readj, plain hash).
    Assignment(AssignmentFn),
    /// PKG power-of-two-choices with local estimates.
    TwoChoice {
        /// Slot count.
        n: usize,
        /// Local per-slot load estimates (tuples routed).
        est: Vec<u64>,
    },
    /// Round-robin.
    RoundRobin {
        /// Slot count.
        n: usize,
        /// Next slot.
        next: usize,
    },
}

impl SourceRouter {
    /// Materializes a view.
    ///
    /// # Panics
    /// Panics on [`RoutingView::TableDelta`]: a delta is an update to an
    /// existing table view, not a materializable starting point — fresh
    /// routers (startup, retire re-homing) must receive a full view.
    pub fn from_view(view: RoutingView) -> Self {
        match view {
            RoutingView::TablePlusHash {
                table,
                n_tasks,
                splits,
            } => {
                let mut a = AssignmentFn::with_table(n_tasks, table);
                a.set_splits(splits);
                SourceRouter::Assignment(a)
            }
            RoutingView::TwoChoice { n_tasks } => SourceRouter::TwoChoice {
                n: n_tasks,
                est: vec![0; n_tasks],
            },
            RoutingView::RoundRobin { n_tasks } => SourceRouter::RoundRobin {
                n: n_tasks,
                next: 0,
            },
            RoutingView::TableDelta { .. } => {
                // lint: allow(panic, reason = "documented, tested contract:
                // a delta cannot seed a router, and routing tuples through a
                // fabricated empty table would silently misdeliver every key")
                panic!("a TableDelta updates an existing table view; it cannot seed a router")
            }
        }
    }

    /// Replaces the routing function, preserving PKG's local estimates
    /// where slot counts allow. A [`RoutingView::TableDelta`] is applied
    /// in place on the held table (`O(moves)`, no rebuild) — the
    /// controller only ships one when this router already holds the
    /// matching table view (see `Partitioner::last_install_was_delta`).
    ///
    /// # Panics
    /// Panics when a delta arrives against a non-table router or a
    /// different slot count — both mean the controller and source views
    /// have diverged, which must never be routed through silently.
    pub fn update(&mut self, view: RoutingView) {
        match (&mut *self, view) {
            (SourceRouter::TwoChoice { n, est }, RoutingView::TwoChoice { n_tasks }) => {
                est.resize(n_tasks, 0);
                *n = n_tasks;
            }
            (SourceRouter::Assignment(a), RoutingView::TableDelta { n_tasks, moves }) => {
                assert_eq!(
                    a.n_tasks(),
                    n_tasks,
                    "table delta against a mismatched ring"
                );
                a.apply_delta(moves);
            }
            // Any other delta pairing falls through to from_view, which
            // panics with the diagnosis; full views simply re-materialize.
            (_, view) => *self = SourceRouter::from_view(view),
        }
    }

    /// Routes one key.
    #[inline]
    pub fn route(&mut self, key: Key) -> TaskId {
        match self {
            SourceRouter::Assignment(a) => a.route(key),
            SourceRouter::TwoChoice { n, est } => {
                let (a, b) = streambal_hashring::two_choices(key.raw(), *n);
                let d = if est[a] <= est[b] { a } else { b };
                est[d] += 1;
                TaskId::from(d)
            }
            SourceRouter::RoundRobin { n, next } => {
                let d = *next;
                *next = (*next + 1) % *n;
                TaskId::from(d)
            }
        }
    }

    /// Routes a batch of keys, appending one destination per key to `out`
    /// (cleared first). Observationally identical to routing each key in
    /// order with [`SourceRouter::route`]; the table+hash variant uses the
    /// table's batch path so the probe sequence pipelines across the
    /// channel batch (see `streambal_core::routing` docs).
    pub fn route_batch(&mut self, keys: &[Key], out: &mut Vec<TaskId>) {
        match self {
            SourceRouter::Assignment(a) => a.route_batch(keys, out),
            SourceRouter::TwoChoice { n, est } => {
                out.clear();
                out.reserve(keys.len());
                for &k in keys {
                    let (a, b) = streambal_hashring::two_choices(k.raw(), *n);
                    let d = if est[a] <= est[b] { a } else { b };
                    est[d] += 1;
                    out.push(TaskId::from(d));
                }
            }
            SourceRouter::RoundRobin { n, next } => {
                out.clear();
                out.reserve(keys.len());
                for _ in keys {
                    out.push(TaskId::from(*next));
                    *next = (*next + 1) % *n;
                }
            }
        }
    }

    /// Current slot count.
    pub fn n_tasks(&self) -> usize {
        match self {
            SourceRouter::Assignment(a) => a.n_tasks(),
            SourceRouter::TwoChoice { n, .. } | SourceRouter::RoundRobin { n, .. } => *n,
        }
    }

    /// Routing-table shape for the flight recorder's per-interval
    /// `RouterSnapshot`: `(live entries, tombstone debris)` of the
    /// table's slab. Table-less routers (PKG, shuffle) report `(0, 0)` —
    /// they have no table to grow or fragment.
    pub fn table_stats(&self) -> (usize, usize) {
        match self {
            SourceRouter::Assignment(a) => {
                let t = a.table();
                (t.len(), t.occupied().saturating_sub(t.len()))
            }
            SourceRouter::TwoChoice { .. } | SourceRouter::RoundRobin { .. } => (0, 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streambal_core::RoutingTable;

    /// A split-less table view.
    fn table_view(table: RoutingTable, n_tasks: usize) -> RoutingView {
        RoutingView::TablePlusHash {
            table,
            n_tasks,
            splits: Vec::new(),
        }
    }

    #[test]
    fn table_plus_hash_matches_assignment_fn() {
        let mut table = RoutingTable::new();
        table.insert(Key(3), TaskId(1));
        let mut r = SourceRouter::from_view(table_view(table.clone(), 4));
        let reference = AssignmentFn::with_table(4, table);
        for k in 0..200u64 {
            assert_eq!(r.route(Key(k)), reference.route(Key(k)));
        }
    }

    #[test]
    fn deterministic_ring_across_holders() {
        // Two independent materializations of the same view route alike —
        // the property that lets the controller and sources stay in sync.
        let view = table_view(RoutingTable::new(), 7);
        let mut a = SourceRouter::from_view(view.clone());
        let mut b = SourceRouter::from_view(view);
        for k in 0..500u64 {
            assert_eq!(a.route(Key(k)), b.route(Key(k)));
        }
    }

    #[test]
    fn two_choice_routes_in_choice_set() {
        let mut r = SourceRouter::from_view(RoutingView::TwoChoice { n_tasks: 6 });
        for k in 0..100u64 {
            let (a, b) = streambal_hashring::two_choices(k, 6);
            let d = r.route(Key(k)).index();
            assert!(d == a || d == b);
        }
    }

    #[test]
    fn route_batch_matches_per_key_for_every_view() {
        let mut table = RoutingTable::new();
        for k in 0..50u64 {
            table.insert(Key(k * 3), TaskId((k % 4) as u32));
        }
        let views = [
            table_view(table, 4),
            RoutingView::TwoChoice { n_tasks: 4 },
            RoutingView::RoundRobin { n_tasks: 4 },
        ];
        let keys: Vec<Key> = (0..500u64).map(Key).collect();
        for view in views {
            let mut batched = SourceRouter::from_view(view.clone());
            let mut per_key = SourceRouter::from_view(view);
            let mut out = Vec::new();
            batched.route_batch(&keys, &mut out);
            let expect: Vec<TaskId> = keys.iter().map(|&k| per_key.route(k)).collect();
            assert_eq!(out, expect);
        }
    }

    #[test]
    fn round_robin_cycles() {
        let mut r = SourceRouter::from_view(RoutingView::RoundRobin { n_tasks: 3 });
        let seq: Vec<usize> = (0..6).map(|_| r.route(Key(0)).index()).collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2]);
    }

    /// Applying a delta leaves the router routing exactly like a holder
    /// of the equivalent full view — the controller/source lockstep the
    /// engine's delta shipping relies on.
    #[test]
    fn table_delta_matches_full_view_install() {
        let table: RoutingTable = (0..100u64)
            .map(|k| (Key(k), TaskId((k % 3) as u32)))
            .collect();
        let mut delta_router = SourceRouter::from_view(table_view(table.clone(), 4));
        // A mixed delta: new pins, re-pins, and move-backs to h(k).
        let reference = AssignmentFn::with_table(4, table.clone());
        let moves: Vec<(Key, TaskId)> = vec![
            (Key(500), TaskId(2)),                    // new entry
            (Key(7), TaskId(3)),                      // re-pin
            (Key(11), reference.hash_route(Key(11))), // move-back
        ];
        delta_router.update(RoutingView::TableDelta {
            n_tasks: 4,
            moves: moves.clone(),
        });
        let mut full = AssignmentFn::with_table(4, table);
        full.apply_delta(moves);
        let mut fresh = SourceRouter::from_view(table_view(full.table().clone(), 4));
        for k in 0..1_000u64 {
            assert_eq!(delta_router.route(Key(k)), fresh.route(Key(k)), "key {k}");
        }
    }

    /// A split view materializes the split table, a delta applied on top
    /// leaves it intact, and re-materialized holders rotate identically
    /// from the primary (cursors are per-holder, reset on install).
    #[test]
    fn split_view_materializes_and_survives_deltas() {
        let table: RoutingTable = (0..20u64)
            .map(|k| (Key(k), TaskId((k % 4) as u32)))
            .collect();
        let view = RoutingView::TablePlusHash {
            table,
            n_tasks: 4,
            splits: vec![(Key(100), vec![TaskId(1), TaskId(3)])],
        };
        let mut a = SourceRouter::from_view(view.clone());
        let mut b = SourceRouter::from_view(view);
        // Both holders rotate 1, 3, 1, 3, ... in lockstep.
        for _ in 0..4 {
            assert_eq!(a.route(Key(100)), b.route(Key(100)));
        }
        // A table delta against the split-carrying router applies to the
        // table layer only; the split keeps routing.
        a.update(RoutingView::TableDelta {
            n_tasks: 4,
            moves: vec![(Key(5), TaskId(2))],
        });
        assert_eq!(a.route(Key(5)), TaskId(2));
        let d = a.route(Key(100));
        assert!(d == TaskId(1) || d == TaskId(3), "split lost by delta");
        // A view without splits re-materializes without them: unsplit.
        a.update(table_view(RoutingTable::new(), 4));
        if let SourceRouter::Assignment(f) = &a {
            assert!(f.splits().is_empty());
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    #[should_panic(expected = "cannot seed a router")]
    fn table_delta_cannot_seed_a_router() {
        SourceRouter::from_view(RoutingView::TableDelta {
            n_tasks: 2,
            moves: vec![],
        });
    }

    #[test]
    #[should_panic(expected = "mismatched ring")]
    fn table_delta_against_wrong_ring_panics() {
        let mut r = SourceRouter::from_view(table_view(RoutingTable::new(), 3));
        r.update(RoutingView::TableDelta {
            n_tasks: 4,
            moves: vec![],
        });
    }

    #[test]
    fn table_stats_reports_entries_and_tombstone_debris() {
        let mut pkg = SourceRouter::from_view(RoutingView::TwoChoice { n_tasks: 3 });
        assert_eq!(pkg.table_stats(), (0, 0), "table-less routers report zero");
        let _ = pkg.route(Key(1));

        let table: RoutingTable = (0..20u64)
            .map(|k| (Key(k), TaskId((k % 3) as u32)))
            .collect();
        let mut r = SourceRouter::from_view(table_view(table, 3));
        assert_eq!(r.table_stats().0, 20);
        // Moving a key back to its hash home deletes its table entry,
        // shrinking the live count (and possibly leaving a tombstone).
        let home = match &r {
            SourceRouter::Assignment(a) => a.hash_route(Key(5)),
            _ => unreachable!(),
        };
        r.update(RoutingView::TableDelta {
            n_tasks: 3,
            moves: vec![(Key(5), home)],
        });
        assert_eq!(r.table_stats().0, 19);
    }

    #[test]
    fn update_preserves_pkg_estimates() {
        let mut r = SourceRouter::from_view(RoutingView::TwoChoice { n_tasks: 2 });
        for _ in 0..10 {
            r.route(Key(1));
        }
        r.update(RoutingView::TwoChoice { n_tasks: 3 });
        if let SourceRouter::TwoChoice { est, .. } = &r {
            assert_eq!(est.iter().sum::<u64>(), 10, "estimates preserved");
            assert_eq!(est.len(), 3);
        } else {
            panic!("wrong variant");
        }
    }
}
