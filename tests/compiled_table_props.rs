//! Property tests pinning the incrementally maintained [`RoutingTable`]
//! slab — and every way [`AssignmentFn`] mutates it — to a `BTreeMap`
//! model (proptest), plus a regression test that delta application over
//! heavy tombstone churn preserves the slab's structural invariants.
//!
//! The deterministic core of the equivalence property also lives as a
//! unit test next to the implementation
//! (`crates/core/src/routing.rs::incremental_insert_remove_matches_fresh_build`);
//! these tests drive the same invariants through randomized op
//! sequences, where collision chains, tombstone reuse, and rehash
//! timing vary per case.

use std::collections::BTreeMap;

use proptest::prelude::*;
use streambal::core::{next_live, AssignmentFn, Key, RoutingTable, TaskId};

/// The structural invariants every mutation must preserve:
///
/// * **load factor** — occupied slots (live + tombstoned) never exceed
///   half the capacity, so linear probes always terminate at an empty
///   slot;
/// * **probe termination witness** — at least one genuinely empty slot
///   exists (implied by the load factor for any capacity ≥ 2, asserted
///   separately so a violation reports which side broke);
/// * **size accounting** — `len()` equals the number of live entries
///   the reference model holds.
fn assert_invariants(c: &RoutingTable, model: &BTreeMap<u64, u32>) {
    assert!(
        c.occupied() * 2 <= c.capacity(),
        "load factor violated: {} occupied of {} slots",
        c.occupied(),
        c.capacity()
    );
    assert!(
        c.occupied() < c.capacity(),
        "no empty slot left: probes could spin"
    );
    assert_eq!(c.len(), model.len(), "live-entry count diverged from model");
}

/// Checks `c` against `model` on every key in `domain` — present keys
/// must resolve to the modeled destination, absent keys to `None`.
fn assert_lookups(c: &RoutingTable, model: &BTreeMap<u64, u32>, domain: u64) {
    for k in 0..domain {
        assert_eq!(
            c.lookup(Key(k)),
            model.get(&k).map(|&d| TaskId(d)),
            "lookup diverged for key {k}"
        );
    }
}

/// The largest ring the assignment-level property grows to.
const MAX_TASKS: usize = 7;

/// The model: the table as a `BTreeMap`, the task count, and a ring of
/// its own per task count for `h(k)`.
struct Model {
    table: BTreeMap<u64, u32>,
    n: usize,
    rings: Vec<AssignmentFn>,
}

impl Model {
    fn new(n: usize) -> Self {
        Model {
            table: BTreeMap::new(),
            n,
            rings: (1..=MAX_TASKS).map(AssignmentFn::hash_only).collect(),
        }
    }

    /// `h(k)` over the current task count.
    fn hash(&self, k: u64) -> u32 {
        self.rings[self.n - 1].hash_route(Key(k)).0
    }

    /// Eq. 1.
    fn route(&self, k: u64) -> u32 {
        self.table.get(&k).copied().unwrap_or_else(|| self.hash(k))
    }

    /// `apply_delta`: a move to `h(k)` removes the entry.
    fn delta(&mut self, moves: &[(u64, u32)]) {
        for &(k, d) in moves {
            if d == self.hash(k) {
                self.table.remove(&k);
            } else {
                self.table.insert(k, d);
            }
        }
    }

    /// Pins every `live` key whose route differs from `old` back to it,
    /// except keys that were on `skip`.
    fn pin_back(&mut self, live: &[Key], old: &[u32], skip: u32) {
        for (k, &old) in live.iter().zip(old) {
            if old != skip && self.route(k.raw()) != old {
                self.table.insert(k.raw(), old);
            }
        }
    }
}

/// The key domain of the assignment-level property.
const DOMAIN: u64 = 64;

/// After an op: the table's entries are the model's, the slab is sound,
/// and every key of the domain routes as Eq. 1 says over the model.
fn assert_matches_model(f: &AssignmentFn, model: &Model, op: &str) {
    assert_eq!(f.n_tasks(), model.n, "after {op}");
    let want: Vec<(Key, TaskId)> = model
        .table
        .iter()
        .map(|(&k, &d)| (Key(k), TaskId(d)))
        .collect();
    assert_eq!(f.table().sorted_entries(), want, "after {op}");
    assert_invariants(f.table(), &model.table);
    for k in 0..DOMAIN {
        assert_eq!(f.route(Key(k)).0, model.route(k), "after {op}: key {k}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any interleaving of inserts, overwrites, and removes — applied
    /// incrementally from an empty table, through however many rehashes
    /// the sequence provokes — answers every lookup exactly like a
    /// table collected fresh from the surviving entries. The key domain
    /// is kept small (96) relative to the op count so chains collide,
    /// removes hit live slots, and re-inserts land on tombstones.
    #[test]
    fn incremental_ops_match_fresh_build(
        ops in proptest::collection::vec((0u64..96, 0u32..8), 1..400),
    ) {
        let mut c = RoutingTable::new();
        let mut model: BTreeMap<u64, u32> = BTreeMap::new();
        for (k, action) in ops {
            if action == 0 {
                prop_assert_eq!(
                    c.remove(Key(k)),
                    model.remove(&k).map(TaskId),
                    "remove returned the wrong prior destination"
                );
            } else {
                prop_assert_eq!(
                    c.insert(Key(k), TaskId(action)),
                    model.insert(k, action).map(TaskId),
                    "insert returned the wrong prior destination"
                );
            }
            assert_invariants(&c, &model);
        }
        // The surviving entries, built fresh: same answers everywhere.
        let fresh: RoutingTable = model
            .iter()
            .map(|(&k, &d)| (Key(k), TaskId(d)))
            .collect();
        prop_assert_eq!(&c, &fresh);
        assert_lookups(&c, &model, 96);
        assert_lookups(&fresh, &model, 96);
    }

    /// Every table mutation `AssignmentFn` offers — rebalance-shaped
    /// deltas (moves to the hash destination remove the entry, others
    /// pin it), dead-slot re-pins, pinned scale-in (its `retain` sweep
    /// drops the victim's entries), and scale-out — keeps the one slab in
    /// lockstep with the model: same sorted entries, same route for every
    /// key, structural invariants intact.
    #[test]
    fn apply_delta_keeps_table_and_slab_in_lockstep(
        rounds in proptest::collection::vec(
            (0u8..5, proptest::collection::vec((0u64..DOMAIN, 0u32..8), 1..32)),
            1..16,
        ),
    ) {
        let mut model = Model::new(4);
        let mut f = AssignmentFn::with_table(model.n, RoutingTable::default());
        for (op, picks) in rounds {
            // Destinations drawn in 0..8 fold into the current ring.
            let n = model.n;
            let picks: Vec<(u64, u32)> =
                picks.into_iter().map(|(k, d)| (k, d % n as u32)).collect();
            let entries = || picks.iter().map(|&(k, d)| (Key(k), TaskId(d)));
            let live: Vec<Key> = picks.iter().map(|&(k, _)| Key(k)).collect();
            let old: Vec<u32> = live.iter().map(|k| model.route(k.raw())).collect();
            let name = match op {
                0 | 1 => {
                    f.apply_delta(entries());
                    model.delta(&picks);
                    "apply_delta"
                }
                2 => {
                    let dead = picks[0].1 as usize;
                    let is_dead = |d: usize| d == dead;
                    let mut moves = f.repin_dead(TaskId(dead as u32), &is_dead);
                    moves.sort_unstable();
                    let want: Vec<(u64, u32)> = model
                        .table
                        .iter()
                        .filter(|&(_, &d)| d as usize == dead)
                        .map(|(&k, _)| (k, next_live(model.hash(k) as usize, n, is_dead) as u32))
                        .collect();
                    prop_assert_eq!(
                        &moves,
                        &want.iter().map(|&(k, d)| (Key(k), TaskId(d))).collect::<Vec<_>>()
                    );
                    model.delta(&want);
                    "repin_dead"
                }
                3 if n > 2 => {
                    let victim = (n - 1) as u32;
                    prop_assert_eq!(f.remove_task_pinned(&live), TaskId(victim));
                    model.table.retain(|_, &mut d| d != victim);
                    model.n -= 1;
                    // Survivors stay put: whatever the shrunk ring would
                    // churn is pinned back.
                    model.pin_back(&live, &old, victim);
                    "remove_task_pinned"
                }
                4 if n < MAX_TASKS => {
                    prop_assert_eq!(f.add_task(), TaskId(n as u32));
                    model.n += 1;
                    "add_task"
                }
                _ => "nothing",
            };
            assert_matches_model(&f, &model, name);
        }
    }
}

/// Regression: sustained delta application whose move-backs tombstone
/// entries and whose re-pins reuse those tombstones — the steady-state
/// rebalance cadence — never lets tombstone debris break the load
/// factor or leave the slab without an empty slot, and the read side
/// stays exact throughout.
#[test]
fn delta_after_tombstone_churn_keeps_invariants() {
    let mut model = Model::new(6);
    let n_tasks = model.n as u32;
    model.table = (0..512u64).map(|k| (k, k as u32 % n_tasks)).collect();
    let table: RoutingTable = model
        .table
        .iter()
        .map(|(&k, &d)| (Key(k), TaskId(d)))
        .collect();
    let mut f = AssignmentFn::with_table(model.n, table);
    for round in 0..200u64 {
        // Half the window moves back to h(k) (tombstoning the slot),
        // half re-pins (filling tombstones left by earlier rounds).
        let lo = (round * 37) % 400;
        let moves: Vec<(u64, u32)> = (lo..lo + 64)
            .map(|k| {
                let home = model.hash(k);
                if (k + round) % 2 == 0 {
                    (k, home)
                } else {
                    (k, (home + 1 + (round % 4) as u32) % n_tasks)
                }
            })
            .collect();
        f.apply_delta(moves.iter().map(|&(k, d)| (Key(k), TaskId(d))));
        model.delta(&moves);
        assert_invariants(f.table(), &model.table);
    }
    // End state still answers exactly like the model.
    assert_lookups(f.table(), &model.table, 512);
}
