//! Property-based tests over the rebalance algorithms' invariants, on
//! randomized workloads (proptest).

use std::collections::VecDeque;

use proptest::prelude::*;
use streambal::core::{
    loads_of, outcome_from_assignment, rebalance, AssignmentFn, BalanceParams, IntervalStats, Key,
    KeyRecord, Partitioner, RebalanceInput, RebalanceStrategy, Rebalancer, TaskId,
};

/// One step of a randomized controller session against a live
/// [`Rebalancer`]: a statistics round, or one of the assignment
/// mutations the engine performs between rounds.
#[derive(Debug, Clone)]
enum ControllerStep {
    /// `(key, cost, mem)` reports; may fire a plan.
    Round(Vec<(u64, u64, u64)>),
    ApplyMoves(Vec<(u64, usize)>),
    RerouteDead(usize),
    ScaleOut(Vec<u64>),
    ScaleOutPlan(Vec<u64>),
    ScaleIn(Vec<u64>),
    Split(u64, usize),
    UnsplitAll,
}

/// A randomized controller session: a window length from the ones the
/// suites use, and a script in which rounds (half of them empty-ish, keys
/// drawn from a sliding sub-range so they vanish and reappear) interleave
/// with every mutation. Task indices are reduced modulo the live task
/// count when the step runs.
fn arb_controller_run() -> impl Strategy<Value = (usize, Vec<ControllerStep>)> {
    let step = (
        0usize..12,
        (0u64..120, 0usize..8),
        proptest::collection::vec((0u64..60, 0u64..400, 0u64..50), 0..60),
        proptest::collection::vec((0u64..240, 0usize..8), 0..20),
    )
        .prop_map(|(d, (key, task), reports, moves)| match d {
            0 => ControllerStep::ApplyMoves(moves),
            1 => ControllerStep::RerouteDead(task),
            2 => ControllerStep::ScaleOut(moves.iter().map(|m| m.0).collect()),
            3 => ControllerStep::ScaleOutPlan(moves.iter().map(|m| m.0).collect()),
            4 => ControllerStep::ScaleIn(moves.iter().map(|m| m.0).collect()),
            5 => ControllerStep::Split(key, task),
            6 => ControllerStep::UnsplitAll,
            _ => ControllerStep::Round(
                reports
                    .into_iter()
                    .map(|(k, cost, mem)| (key + k, cost, mem))
                    .collect(),
            ),
        });
    (0usize..4, proptest::collection::vec(step, 1..40))
        .prop_map(|(w, script)| ([1, 2, 5, 100][w], script))
}

/// The `w`-interval-maps recompute the windowed table replaced: every
/// record rebuilt from the retained reports and a fresh route.
fn naive_records(window: &VecDeque<IntervalStats>, f: &AssignmentFn) -> Vec<KeyRecord> {
    let mut mem: std::collections::BTreeMap<Key, u64> = Default::default();
    for iv in window {
        for (k, s) in iv.iter() {
            *mem.entry(k).or_insert(0) += s.mem;
        }
    }
    mem.into_iter()
        .filter(|&(k, _)| f.split_replicas(k).is_none())
        .map(|(k, m)| KeyRecord {
            key: k,
            cost: window.back().and_then(|iv| iv.get(k)).map_or(0, |s| s.cost),
            mem: m,
            current: f.route(k),
            hash_dest: f.hash_route(k),
        })
        .collect()
}

/// One step of a randomized hot-key-splitting session against a live
/// assignment: install a split, dissolve one, or route a batch.
#[derive(Debug, Clone)]
enum SplitScript {
    Split(u64, Vec<usize>),
    Unsplit(u64),
    Route(Vec<u64>),
}

/// A randomized split session: `n_tasks` in 2..6, an initial routing
/// delta (so the table/hash layers under the split layer are non-trivial),
/// and an interleaving of split installs (distinct replica slots),
/// unsplits (of keys that may or may not be split), and batch routes.
fn arb_split_run() -> impl Strategy<Value = (usize, Vec<(Key, TaskId)>, Vec<SplitScript>)> {
    (2usize..6).prop_flat_map(|n| {
        let moves = proptest::collection::vec((0u64..50, 0..n as u32), 0..30).prop_map(|v| {
            v.into_iter()
                .map(|(k, t)| (Key(k), TaskId(t)))
                .collect::<Vec<_>>()
        });
        // One op: the discriminant picks the variant (routes weighted
        // double), the remaining fields parameterize it — the vendored
        // proptest has no `prop_oneof`, so unused fields are ignored.
        // Split slots are `len` consecutive task indices mod `n`
        // starting at `start`: distinct by construction, varied in both
        // membership and primary.
        let op = (
            0usize..4,
            0u64..50,
            (0usize..n, 2usize..=n),
            proptest::collection::vec(0u64..60, 0..40),
        )
            .prop_map(move |(d, key, (start, len), batch)| match d {
                0 => SplitScript::Split(key, (0..len).map(|i| (start + i) % n).collect()),
                1 => SplitScript::Unsplit(key),
                _ => SplitScript::Route(batch),
            });
        (Just(n), moves, proptest::collection::vec(op, 1..30))
    })
}

/// A randomized rebalance input: `n_tasks` in 2..6, up to 120 keys with
/// arbitrary costs/memories, current placement consistent with a routing
/// table over a hash assignment.
fn arb_input() -> impl Strategy<Value = RebalanceInput> {
    (2usize..6, 1usize..120).prop_flat_map(|(n_tasks, n_keys)| {
        let rec = (0u64..1_000, 0u64..1_000).prop_map(move |(cost, mem)| (cost, mem));
        (
            Just(n_tasks),
            proptest::collection::vec((rec, 0..n_tasks as u32, 0..n_tasks as u32), n_keys),
        )
            .prop_map(|(n_tasks, raw)| {
                let records = raw
                    .into_iter()
                    .enumerate()
                    .map(|(i, ((cost, mem), cur, hash))| KeyRecord {
                        key: Key(i as u64),
                        cost,
                        mem,
                        current: TaskId(cur),
                        hash_dest: TaskId(hash),
                    })
                    .collect();
                RebalanceInput { n_tasks, records }
            })
    })
}

fn arb_params() -> impl Strategy<Value = BalanceParams> {
    (0.0f64..0.5, 1.0f64..2.0, 0usize..200).prop_map(|(theta_max, beta, table_max)| BalanceParams {
        theta_max,
        beta,
        table_max,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Invariants that must hold for every strategy on every input:
    /// load conservation, in-range assignments, non-redundant tables,
    /// consistent migration accounting.
    #[test]
    fn outcome_invariants(input in arb_input(), params in arb_params()) {
        for strategy in [
            RebalanceStrategy::Mixed,
            RebalanceStrategy::MinTable,
            RebalanceStrategy::MinMig,
            RebalanceStrategy::Simple,
        ] {
            let out = rebalance(&input, strategy, &params);

            // Load conservation.
            let before: u64 = input.records.iter().map(|r| r.cost).sum();
            let after: u64 = out.loads.loads.iter().sum();
            prop_assert_eq!(before, after, "{}: load leaked", strategy.name());

            // Table entries never point at the hash destination.
            for (k, d) in out.table.iter() {
                let rec = input.records.iter().find(|r| r.key == k).unwrap();
                prop_assert_ne!(d, rec.hash_dest, "{}: redundant entry", strategy.name());
            }

            // Migration accounting: cost equals the sum of moved states,
            // and every move starts from the key's true current task.
            let mut bytes = 0u64;
            for m in out.plan.moves() {
                let rec = input.records.iter().find(|r| r.key == m.key).unwrap();
                prop_assert_eq!(m.from, rec.current);
                prop_assert!(m.to.index() < input.n_tasks);
                bytes += m.state_bytes;
            }
            prop_assert_eq!(bytes, out.plan.cost_bytes());

            // Migration fraction within [0, 1].
            prop_assert!((0.0..=1.0).contains(&out.migration_fraction));
        }
    }

    /// With `Amax = 0`, Mixed fully cleans. If the pure-hash assignment is
    /// already within `θmax` (nothing to drain in Phase II), the result is
    /// exactly the hash assignment: empty table, loads = hash loads.
    #[test]
    fn mixed_full_cleaning_restores_hash_when_hash_is_balanced(
        input in arb_input(),
        theta in 0.1f64..1.0,
    ) {
        // Hash-side loads.
        let mut hash_loads = vec![0u64; input.n_tasks];
        for r in &input.records {
            hash_loads[r.hash_dest.index()] += r.cost;
        }
        let total: u64 = hash_loads.iter().sum();
        let mean = total as f64 / input.n_tasks as f64;
        let lmax = (1.0 + theta) * mean;
        prop_assume!(total > 0);
        prop_assume!(hash_loads.iter().all(|&l| (l as f64) <= lmax));

        let params = BalanceParams { theta_max: theta, beta: 1.5, table_max: 0 };
        let out = rebalance(&input, RebalanceStrategy::Mixed, &params);
        prop_assert!(
            out.table.is_empty(),
            "hash was balanced, yet {} table entries remain",
            out.table.len()
        );
        prop_assert_eq!(out.loads.loads.clone(), hash_loads);
        // The plan is exactly the move-backs of parked keys.
        for m in out.plan.moves() {
            let rec = input.records.iter().find(|r| r.key == m.key).unwrap();
            prop_assert_eq!(m.to, rec.hash_dest);
        }
    }

    /// The Simple algorithm achieves the Theorem 1 bound whenever the
    /// premises hold (perfect assignment exists and no key exceeds L̄).
    #[test]
    fn simple_respects_theorem1(n_tasks in 2usize..6, per_task in 2usize..6, unit in 1u64..50) {
        // Construct an input where a perfect assignment trivially exists:
        // n_tasks · per_task keys of identical cost.
        let records: Vec<KeyRecord> = (0..(n_tasks * per_task) as u64)
            .map(|i| KeyRecord {
                key: Key(i),
                cost: unit,
                mem: 1,
                current: TaskId(0),
                hash_dest: TaskId(0),
            })
            .collect();
        let input = RebalanceInput { n_tasks, records };
        let out = rebalance(&input, RebalanceStrategy::Simple, &BalanceParams::default());
        let bound = (1.0 - 1.0 / n_tasks as f64) / 3.0;
        prop_assert!(
            out.achieved_theta <= bound + 1e-9,
            "θ {} > Theorem-1 bound {}",
            out.achieved_theta,
            bound
        );
    }

    /// The split layer's batched/scalar equivalence under arbitrary
    /// split/unsplit interleavings: `route_batch` must be
    /// observationally identical to routing each key in order with
    /// `route` — including split-key cursor rotation, which both paths
    /// advance per occurrence. The reference holder is a clone taken at
    /// batch time, so both start from identical cursor state. Every
    /// destination must stay in range, and a split key's destinations
    /// must stay inside its installed replica set.
    #[test]
    fn split_aware_route_batch_matches_scalar_reference(
        (n_tasks, moves, script) in arb_split_run()
    ) {
        let mut f = AssignmentFn::hash_only(n_tasks);
        f.apply_delta(moves.iter().copied());
        for op in &script {
            match op {
                SplitScript::Split(k, slots) => {
                    let reps: Vec<TaskId> =
                        slots.iter().map(|&s| TaskId(s as u32)).collect();
                    // Slots are a distinct subsequence of 0..n of length
                    // ≥ 2, so the install must be accepted.
                    prop_assert!(f.set_split(Key(*k), &reps));
                }
                SplitScript::Unsplit(k) => {
                    let _ = f.clear_split(Key(*k));
                }
                SplitScript::Route(keys) => {
                    let keys: Vec<Key> = keys.iter().map(|&k| Key(k)).collect();
                    let reference = f.clone();
                    let mut got = Vec::new();
                    f.route_batch(&keys, &mut got);
                    let want: Vec<TaskId> =
                        keys.iter().map(|&k| reference.route(k)).collect();
                    prop_assert_eq!(&got, &want);
                    for (&k, &d) in keys.iter().zip(&got) {
                        prop_assert!(d.index() < n_tasks);
                        if let Some(reps) = f.split_replicas(k) {
                            prop_assert!(reps.contains(&d));
                        }
                    }
                }
            }
        }
    }

    /// The controller's incrementally maintained view — records with their
    /// cached routes, and the running per-task loads the trigger reads —
    /// equals the naive recompute after every round and every assignment
    /// mutation, fired plans included, and leaves split keys out of both.
    #[test]
    fn rebalancer_view_matches_naive_recompute((w, script) in arb_controller_run()) {
        let mut rb = Rebalancer::new(3, w, RebalanceStrategy::Mixed, BalanceParams::default());
        let mut window: VecDeque<IntervalStats> = VecDeque::new();
        let keys = |raw: &[u64]| -> Vec<Key> { raw.iter().map(|&k| Key(k)).collect() };
        for step in &script {
            let n = rb.assignment().n_tasks();
            match step {
                ControllerStep::Round(reports) => {
                    let mut iv = IntervalStats::new();
                    for &(k, cost, mem) in reports {
                        iv.observe(Key(k), 1, cost, mem);
                    }
                    if window.len() == w {
                        window.pop_front();
                    }
                    window.push_back(iv.clone());
                    if let Some(outcome) = rb.end_interval(iv) {
                        for m in outcome.plan.moves() {
                            prop_assert_eq!(rb.assignment().route(m.key), m.to);
                        }
                    }
                }
                ControllerStep::ApplyMoves(moves) => {
                    let moves: Vec<(Key, TaskId)> = moves
                        .iter()
                        .map(|&(k, t)| (Key(k), TaskId((t % n) as u32)))
                        .collect();
                    rb.apply_moves(&moves);
                }
                ControllerStep::RerouteDead(t) => {
                    let dead = t % n;
                    rb.reroute_dead(TaskId(dead as u32), &|d| d == dead);
                }
                ControllerStep::ScaleOut(live) if n < 8 => {
                    rb.scale_out(&keys(live));
                }
                ControllerStep::ScaleOutPlan(live) if n < 8 => {
                    let (new, moves) = rb.scale_out_plan(&keys(live));
                    for (k, _) in moves {
                        prop_assert_eq!(rb.assignment().route(k), new);
                    }
                }
                ControllerStep::ScaleIn(live) if n > 2 => {
                    rb.scale_in(TaskId(n as u32 - 1), &keys(live));
                }
                ControllerStep::Split(k, t) => {
                    let other = TaskId((1 + t % (n - 1)) as u32);
                    prop_assert!(rb.split_key(Key(*k), &[TaskId(0), other]));
                }
                ControllerStep::UnsplitAll => {
                    for (k, _) in rb.splits() {
                        prop_assert!(rb.unsplit_key(k).is_some());
                    }
                }
                _ => {}
            }
            let want = naive_records(&window, rb.assignment());
            let n = rb.assignment().n_tasks();
            prop_assert_eq!(rb.current_loads(), loads_of(&want, n));
            let input = rb.build_input();
            prop_assert_eq!(input.n_tasks, n);
            prop_assert_eq!(input.records, want);
        }
    }

    /// outcome_from_assignment is the inverse of any assignment: replaying
    /// the plan over `current` yields exactly the claimed loads.
    #[test]
    fn plan_replay_matches_loads(input in arb_input()) {
        let params = BalanceParams::default();
        let out = rebalance(&input, RebalanceStrategy::Mixed, &params);
        // Replay: start from current, apply moves.
        let mut dest: std::collections::HashMap<Key, TaskId> = input
            .records
            .iter()
            .map(|r| (r.key, r.current))
            .collect();
        for m in out.plan.moves() {
            dest.insert(m.key, m.to);
        }
        let mut loads = vec![0u64; input.n_tasks];
        for r in &input.records {
            loads[dest[&r.key].index()] += r.cost;
        }
        prop_assert_eq!(loads, out.loads.loads.clone());

        // And rebuilding the outcome from the replayed assignment is a
        // fixpoint (same table, empty plan).
        let assign: Vec<TaskId> = input.records.iter().map(|r| dest[&r.key]).collect();
        let out2 = outcome_from_assignment(
            &RebalanceInput {
                n_tasks: input.n_tasks,
                records: input
                    .records
                    .iter()
                    .map(|r| KeyRecord { current: dest[&r.key], ..*r })
                    .collect(),
            },
            &assign,
        );
        prop_assert!(out2.plan.is_empty());
        prop_assert_eq!(out2.table.len(), out.table.len());
    }
}

#[test]
fn proptest_module_loads() {
    // Anchor so `cargo test` lists this integration target even when
    // proptest is filtered out.
}
