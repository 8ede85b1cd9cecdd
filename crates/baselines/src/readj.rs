//! Readj — Gedik, "Partitioning functions for stateful data parallelism in
//! stream processing", VLDBJ 2014. The paper's closest competitor.
//!
//! Readj uses the same hash + explicit-table distribution function, but
//! rebalances very differently:
//!
//! 1. it first tries to *move keys back* to their hash destinations
//!    (shrinking the table) whenever that does not overload the target;
//! 2. it then repeatedly searches **all (task, key) pairs** for the best
//!    single *move* or *swap* of hot keys between the most-loaded task and
//!    any other, applying actions until balance or no improvement.
//!
//! Only keys whose cost is at least `σ · L̄` participate; a smaller σ
//! tracks more candidates — better plans, much slower search (the paper
//! sweeps σ and reports Readj's best result, and so do our benches).
//! Because the search only considers heavy keys and minimizes imbalance
//! rather than state movement, it degrades when key workloads vary widely
//! (paper §VI) — the behaviour Figs. 12–14 measure.

use streambal_core::{KeyRecord, Rebalancer, TaskId};

use crate::CoreBalancer;

/// Readj tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadjConfig {
    /// Imbalance tolerance (same θmax semantics as the core algorithms).
    pub theta_max: f64,
    /// Candidate threshold: keys with `c(k) ≥ σ · L̄` join the search.
    pub sigma: f64,
    /// Safety cap on applied actions per rebalance.
    pub max_actions: usize,
}

impl Default for ReadjConfig {
    fn default() -> Self {
        ReadjConfig {
            theta_max: 0.08,
            sigma: 0.05,
            max_actions: 512,
        }
    }
}

/// One search action.
#[derive(Debug, Clone, Copy)]
enum Action {
    /// Move key (record index) to a task.
    Move(u32, TaskId),
    /// Swap two keys between their tasks.
    Swap(u32, u32),
}

/// Runs the Readj rebalance over the records, returning the new
/// assignment (parallel to `records`).
pub fn readj_rebalance(records: &[KeyRecord], n_tasks: usize, cfg: &ReadjConfig) -> Vec<TaskId> {
    assert!(n_tasks > 0, "need at least one task");
    let mut assign: Vec<TaskId> = records.iter().map(|r| r.current).collect();
    let mut loads = vec![0u64; n_tasks];
    for r in records {
        loads[r.current.index()] += r.cost;
    }
    let total: u64 = loads.iter().sum();
    let mean = total as f64 / n_tasks as f64;
    let lmax = (1.0 + cfg.theta_max) * mean;

    // Step 1: move back parked keys while the hash target has room —
    // Readj's signature bias ("always tries to move back the keys").
    let mut back: Vec<u32> = (0..records.len() as u32)
        .filter(|&i| records[i as usize].in_table())
        .collect();
    back.sort_unstable_by_key(|&i| std::cmp::Reverse(records[i as usize].cost));
    for i in back {
        let r = &records[i as usize];
        let (cur, home) = (assign[i as usize], r.hash_dest);
        if cur == home {
            continue;
        }
        if loads[home.index()] as f64 + r.cost as f64 <= lmax {
            loads[cur.index()] -= r.cost;
            loads[home.index()] += r.cost;
            assign[i as usize] = home;
        }
    }

    // Step 2: hot-key candidates.
    let threshold = cfg.sigma * mean;
    let candidates: Vec<u32> = (0..records.len() as u32)
        .filter(|&i| records[i as usize].cost as f64 >= threshold)
        .collect();

    for _ in 0..cfg.max_actions {
        // Most-loaded task.
        let dmax = (0..n_tasks).max_by_key(|&d| (loads[d], d)).unwrap();
        if (loads[dmax] as f64) <= lmax {
            break; // balanced
        }
        let current_max = *loads.iter().max().unwrap();

        // Exhaustive move/swap search among hot keys, as described in the
        // paper ("considers all possible swaps by pairing tasks and keys").
        let mut best: Option<(u64, u64, Action)> = None; // (new_max, bytes, act)
        let on_dmax: Vec<u32> = candidates
            .iter()
            .copied()
            .filter(|&i| assign[i as usize].index() == dmax)
            .collect();
        for &i in &on_dmax {
            let ci = records[i as usize].cost;
            for d2 in 0..n_tasks {
                if d2 == dmax {
                    continue;
                }
                // Move i → d2.
                let new_pair_max = (loads[dmax] - ci).max(loads[d2] + ci);
                let new_max = new_pair_max.max(third_max(&loads, dmax, d2));
                let bytes = records[i as usize].mem;
                if new_max < current_max && best.is_none_or(|(m, b, _)| (new_max, bytes) < (m, b)) {
                    best = Some((new_max, bytes, Action::Move(i, TaskId::from(d2))));
                }
                // Swap i ↔ j for hot j on d2 with smaller cost.
                for &j in &candidates {
                    if assign[j as usize].index() != d2 {
                        continue;
                    }
                    let cj = records[j as usize].cost;
                    if cj >= ci {
                        continue;
                    }
                    let delta = ci - cj;
                    let new_pair_max = (loads[dmax] - delta).max(loads[d2] + delta);
                    let new_max = new_pair_max.max(third_max(&loads, dmax, d2));
                    let bytes = records[i as usize].mem + records[j as usize].mem;
                    if new_max < current_max
                        && best.is_none_or(|(m, b, _)| (new_max, bytes) < (m, b))
                    {
                        best = Some((new_max, bytes, Action::Swap(i, j)));
                    }
                }
            }
        }
        match best {
            Some((_, _, Action::Move(i, d2))) => {
                let ci = records[i as usize].cost;
                loads[dmax] -= ci;
                loads[d2.index()] += ci;
                assign[i as usize] = d2;
            }
            Some((_, _, Action::Swap(i, j))) => {
                let (ci, cj) = (records[i as usize].cost, records[j as usize].cost);
                let d2 = assign[j as usize];
                loads[dmax] = loads[dmax] - ci + cj;
                loads[d2.index()] = loads[d2.index()] - cj + ci;
                assign[i as usize] = d2;
                assign[j as usize] = TaskId::from(dmax);
            }
            None => break, // no improving action among hot keys
        }
    }
    assign
}

/// Max load over tasks other than the two being modified.
fn third_max(loads: &[u64], a: usize, b: usize) -> u64 {
    loads
        .iter()
        .enumerate()
        .filter(|&(d, _)| d != a && d != b)
        .map(|(_, &l)| l)
        .max()
        .unwrap_or(0)
}

/// The stateful Readj partitioner ("Readj" in the figures): hash + table
/// routing over `n_tasks` instances keeping `window` intervals of state,
/// with the VLDBJ'14 rebalance at interval boundaries — the shared
/// table-backed partitioner planning with [`readj_rebalance`]. It fires
/// on the first interval that overloads a task past `cfg.theta_max`,
/// which is exactly Readj's actionable region (the
/// `underload_only_is_a_noop` test pins the equivalence).
pub fn readj(n_tasks: usize, window: usize, cfg: ReadjConfig) -> CoreBalancer {
    Rebalancer::with_planner(
        n_tasks,
        window,
        "Readj",
        cfg.theta_max,
        Box::new(move |input| readj_rebalance(&input.records, input.n_tasks, &cfg)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use streambal_core::{
        loads_of, AssignmentFn, IntervalStats, Key, LoadSummary, Partitioner, StatsPlane,
    };

    fn rec(key: u64, cost: u64, mem: u64, cur: u32, hash: u32) -> KeyRecord {
        KeyRecord {
            key: Key(key),
            cost,
            mem,
            current: TaskId(cur),
            hash_dest: TaskId(hash),
        }
    }

    fn loads_after(records: &[KeyRecord], assign: &[TaskId], n: usize) -> Vec<u64> {
        let mut loads = vec![0u64; n];
        for (r, d) in records.iter().zip(assign) {
            loads[d.index()] += r.cost;
        }
        loads
    }

    #[test]
    fn balances_hot_keys() {
        // Task 0 holds two hot keys; Readj should spread them.
        let records = vec![
            rec(1, 50, 10, 0, 0),
            rec(2, 50, 10, 0, 0),
            rec(3, 5, 1, 1, 1),
            rec(4, 5, 1, 2, 2),
        ];
        let cfg = ReadjConfig {
            theta_max: 0.3,
            sigma: 0.1,
            max_actions: 16,
        };
        let assign = readj_rebalance(&records, 3, &cfg);
        let loads = loads_after(&records, &assign, 3);
        // The two indivisible cost-50 keys bound the optimum at max = 50
        // (initially 100). Readj must split them.
        assert_eq!(*loads.iter().max().unwrap(), 50, "loads: {loads:?}");
    }

    #[test]
    fn swap_used_when_move_alone_cannot_improve() {
        // d0 = {7, 5} = 12, d1 = {4, 4} = 8. Moving any key makes it
        // worse; swapping 5↔4 (or 7↔4) improves to 11/9.
        let records = vec![
            rec(1, 7, 1, 0, 0),
            rec(2, 5, 1, 0, 0),
            rec(3, 4, 1, 1, 1),
            rec(4, 4, 1, 1, 1),
        ];
        let cfg = ReadjConfig {
            theta_max: 0.05,
            sigma: 0.01,
            max_actions: 8,
        };
        let assign = readj_rebalance(&records, 2, &cfg);
        let loads = loads_after(&records, &assign, 2);
        assert!(
            *loads.iter().max().unwrap() < 12,
            "swap must have improved: {loads:?}"
        );
    }

    #[test]
    fn moves_parked_keys_back_first() {
        // A stale table entry whose hash home has headroom: step 1 clears
        // it before any move/swap search runs.
        let records = vec![
            rec(1, 5, 1, 1, 0),  // parked on d1, hash home d0
            rec(2, 10, 1, 0, 0), // resident on d0
            rec(3, 10, 1, 1, 1), // resident on d1
        ];
        let cfg = ReadjConfig {
            theta_max: 0.5, // lmax = 18.75 ⇒ room on d0 for the return
            ..ReadjConfig::default()
        };
        let assign = readj_rebalance(&records, 2, &cfg);
        assert_eq!(assign[0], TaskId(0), "moved back home");
        assert_eq!(assign[1], TaskId(0));
        assert_eq!(assign[2], TaskId(1));
    }

    #[test]
    fn smaller_sigma_is_no_worse() {
        // More candidates can only widen the searched space.
        let records: Vec<KeyRecord> = (0..60)
            .map(|i| rec(i, 1 + (i * i) % 23, 1, (i % 3) as u32, (i % 3) as u32))
            .collect();
        let theta_of = |sigma: f64| {
            let cfg = ReadjConfig {
                theta_max: 0.0,
                sigma,
                max_actions: 256,
            };
            let assign = readj_rebalance(&records, 3, &cfg);
            LoadSummary::new(loads_after(&records, &assign, 3)).max_theta()
        };
        assert!(theta_of(0.001) <= theta_of(0.5) + 1e-9);
    }

    #[test]
    fn high_sigma_blocks_all_actions() {
        // σ so large no key qualifies ⇒ assignment unchanged (except
        // move-backs, none here).
        let records = vec![rec(1, 30, 1, 0, 0), rec(2, 1, 1, 1, 1)];
        let cfg = ReadjConfig {
            theta_max: 0.0,
            sigma: 1e9,
            max_actions: 64,
        };
        let assign = readj_rebalance(&records, 2, &cfg);
        assert_eq!(assign, vec![TaskId(0), TaskId(1)]);
    }

    #[test]
    fn partitioner_triggers_and_applies_table() {
        let mut p = readj(
            4,
            1,
            ReadjConfig {
                theta_max: 0.08,
                sigma: 0.001,
                max_actions: 512,
            },
        );
        let mut iv = IntervalStats::new();
        for k in 0..400u64 {
            let cost = if k == 0 { 2000 } else { 3 };
            iv.observe(Key(k), 1, cost, cost);
        }
        let before = {
            let mut probe = StatsPlane::new(4, 1);
            probe.push(iv.clone());
            let loads = loads_of(&probe.window().records(), 4);
            assert_eq!(loads, probe.loads());
            loads.max_theta()
        };
        assert!(before > 0.08);
        let outcome = p.end_interval(iv).expect("must trigger");
        assert!(outcome.achieved_theta <= before);
        assert_eq!(p.rebalances(), 1);
        for (k, d) in outcome.table.iter() {
            assert_eq!(p.route(k), d, "table must be live");
        }
    }

    #[test]
    fn terminates_on_unbalanceable_input() {
        // One giant key: nothing Readj can do; must not loop.
        let records = vec![rec(1, 1000, 1, 0, 0), rec(2, 1, 1, 1, 1)];
        let cfg = ReadjConfig {
            theta_max: 0.0,
            sigma: 0.0,
            max_actions: 1000,
        };
        let assign = readj_rebalance(&records, 2, &cfg);
        assert_eq!(assign.len(), 2);
    }

    /// Sharing the overload trigger loses Readj nothing: on an
    /// under-load-only shape (idle hash slot, nothing above `Lmax`) the
    /// move/swap loop cannot act — `readj_rebalance` returns the identity
    /// assignment — so the partitioner correctly declines to fire instead
    /// of reporting a no-op rebalance.
    #[test]
    fn underload_only_is_a_noop() {
        let n_tasks = 4;
        let idle = TaskId(3);
        let probe = AssignmentFn::hash_only(n_tasks);
        let keys: Vec<Key> = (0..40_000u64)
            .map(Key)
            .filter(|&k| probe.hash_route(k) != idle)
            .take(6_000)
            .collect();
        let cfg = ReadjConfig {
            theta_max: 0.5, // Lmax = 1.5·mean > every active task's load
            sigma: 0.001,
            max_actions: 4096,
        };
        // The raw algorithm: identity assignment, nothing it can do.
        let records: Vec<KeyRecord> = keys
            .iter()
            .map(|&k| {
                let d = probe.hash_route(k);
                KeyRecord {
                    key: k,
                    cost: 1,
                    mem: 1,
                    current: d,
                    hash_dest: d,
                }
            })
            .collect();
        let assign = readj_rebalance(&records, n_tasks, &cfg);
        assert!(
            records.iter().zip(&assign).all(|(r, &d)| d == r.current),
            "below Lmax the search must not move anything"
        );
        // The partitioner therefore must not fire at all.
        let mut iv = IntervalStats::new();
        for &k in &keys {
            iv.observe(k, 1, 1, 1);
        }
        let mut p = readj(n_tasks, 1, cfg);
        assert!(p.end_interval(iv).is_none(), "no-op trigger must be damped");
        assert_eq!(p.rebalances(), 0);
    }
}
