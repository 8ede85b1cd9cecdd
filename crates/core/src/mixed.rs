//! The Mixed algorithm (paper §III-C, Algorithm 4) and its brute-force
//! variant MixedBF.
//!
//! Mixed interpolates between MinMig (`n = 0` keys cleaned) and MinTable
//! (`n = N_A`, everything cleaned): Phase I moves back the `n`
//! smallest-state table entries (criteria η = smallest `Sᵢ(k, w)` first, so
//! the forced move-backs are the cheapest possible migrations), then
//! Phases II–III run MinMig-style with the γ criteria. The trial loop
//! grows `n` until the resulting table fits `Amax`.
//!
//! Algorithm 4's line 10 literally sets `n ← N_{A′} − Amax` each trial,
//! which can oscillate; we use the monotone variant
//! `n ← min(N_A, n + max(1, N_{A′} − Amax))` which terminates after at most
//! `N_A` trials and degenerates to MinTable exactly as the paper describes
//! (see DESIGN.md deviations).

use crate::key::TaskId;
use crate::llfd::{complete, try_llfd, Arena, Criteria, LlfdOptions, Overflow, Rows};
use crate::stats::KeyRecord;

/// Result of one Mixed/MixedBF run with its trial diagnostics.
#[derive(Debug, Clone)]
pub struct MixedResult {
    /// New assignment, parallel to the input records.
    pub assign: Vec<TaskId>,
    /// Number of Phase-I move-backs in the accepted trial.
    pub cleaned: usize,
    /// Trials executed before accepting.
    pub trials: usize,
    /// Size of the resulting routing table (`F′(k) ≠ h(k)` count).
    pub table_len: usize,
}

/// The Phase-I cleaning order η. The paper uses smallest windowed memory
/// first (forced move-backs are the cheapest migrations); the alternatives
/// exist for ablation studies quantifying that choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EtaOrder {
    /// Paper: smallest `Sᵢ(k, w)` first.
    #[default]
    SmallestMem,
    /// Ablation: largest state first (worst-case move-backs).
    LargestMem,
    /// Ablation: key order (arbitrary but deterministic).
    KeyOrder,
}

/// Indices of current table entries (`F(k) ≠ h(k)`), sorted by η.
fn table_entries_by_eta(records: &[KeyRecord], order: EtaOrder) -> Vec<u32> {
    let mut idxs: Vec<u32> = (0..records.len() as u32)
        .filter(|&i| records[i as usize].in_table())
        .collect();
    idxs.sort_unstable_by(|&a, &b| {
        let (ra, rb) = (&records[a as usize], &records[b as usize]);
        match order {
            EtaOrder::SmallestMem => ra.mem.cmp(&rb.mem).then_with(|| ra.key.cmp(&rb.key)),
            EtaOrder::LargestMem => rb.mem.cmp(&ra.mem).then_with(|| ra.key.cmp(&rb.key)),
            EtaOrder::KeyOrder => ra.key.cmp(&rb.key),
        }
    });
    idxs
}

fn table_len_of(records: &[KeyRecord], assign: &[TaskId]) -> usize {
    records
        .iter()
        .zip(assign)
        .filter(|(r, &d)| d != r.hash_dest)
        .count()
}

/// One trial: move back the first `n` η-ordered table entries, then run
/// Phases II–III.
fn trial(
    rows: Rows<'_>,
    theta_max: f64,
    beta: f64,
    eta: &[u32],
    n: usize,
) -> Result<Vec<TaskId>, Overflow> {
    let mut moved_back = vec![false; rows.records().len()];
    for &i in &eta[..n.min(eta.len())] {
        moved_back[i as usize] = true;
    }
    let mut arena = Arena::over(rows, Criteria::LargestGamma { beta }, |i, r| {
        if moved_back[i] {
            r.hash_dest
        } else {
            r.current
        }
    });
    let candidates = arena.drain(theta_max)?;
    try_llfd(&mut arena, candidates, theta_max, LlfdOptions::default())?;
    Ok(arena.into_assignment())
}

/// Runs Mixed (Algorithm 4); `table_max` is `Amax`.
pub fn mixed_assign(
    records: &[KeyRecord],
    n_tasks: usize,
    theta_max: f64,
    beta: f64,
    table_max: usize,
) -> MixedResult {
    mixed_assign_with_eta(
        records,
        n_tasks,
        theta_max,
        beta,
        table_max,
        EtaOrder::default(),
    )
}

/// [`mixed_assign`] with an explicit Phase-I cleaning order (ablation).
pub fn mixed_assign_with_eta(
    records: &[KeyRecord],
    n_tasks: usize,
    theta_max: f64,
    beta: f64,
    table_max: usize,
    order: EtaOrder,
) -> MixedResult {
    let rows = Rows::full(records, n_tasks);
    complete(mixed_over(rows, theta_max, beta, table_max, order))
}

/// [`mixed_assign_with_eta`] over `rows`, or the task whose horizon a
/// trial reached.
pub(crate) fn mixed_over(
    rows: Rows<'_>,
    theta_max: f64,
    beta: f64,
    table_max: usize,
    order: EtaOrder,
) -> Result<MixedResult, Overflow> {
    let records = rows.records();
    // Ordered only once a trial overflows `Amax`: the first cleans nothing.
    let mut eta: Option<Vec<u32>> = None;
    let mut n = 0usize;
    let mut trials = 0usize;
    loop {
        trials += 1;
        let assign = trial(rows, theta_max, beta, eta.as_deref().unwrap_or(&[]), n)?;
        let table_len = table_len_of(records, &assign);
        let over = table_len.saturating_sub(table_max);
        if over > 0 {
            let eta = eta.get_or_insert_with(|| table_entries_by_eta(records, order));
            if n < eta.len() {
                n = (n + over).min(eta.len());
                continue;
            }
        }
        return Ok(MixedResult {
            assign,
            cleaned: n,
            trials,
            table_len,
        });
    }
}

/// Runs MixedBF: tries *every* cleaning depth `n ∈ [0, N_A]` and returns
/// the feasible solution (`table ≤ Amax`) with the smallest migration
/// cost, the smaller table breaking ties; if none is feasible, the one
/// with the smallest table, the smaller migration breaking ties. An
/// earlier trial wins a full tie. This is the paper's expensive reference
/// point (Fig. 12a shows it orders of magnitude slower than Mixed).
pub fn mixed_bf_assign(
    records: &[KeyRecord],
    n_tasks: usize,
    theta_max: f64,
    beta: f64,
    table_max: usize,
) -> MixedResult {
    let eta = table_entries_by_eta(records, EtaOrder::default());
    let mut best: Option<((bool, u64, u64), MixedResult)> = None;
    let mut trials = 0usize;
    for n in 0..=eta.len() {
        trials += 1;
        let assign = complete(trial(
            Rows::full(records, n_tasks),
            theta_max,
            beta,
            &eta,
            n,
        ));
        let table_len = table_len_of(records, &assign);
        let mig: u64 = records
            .iter()
            .zip(&assign)
            .filter(|(r, &d)| d != r.current)
            .map(|(r, _)| r.mem)
            .sum();
        // Feasible trials first, by migration; infeasible ones by table.
        let rank = if table_len <= table_max {
            (false, mig, table_len as u64)
        } else {
            (true, table_len as u64, mig)
        };
        if best.as_ref().is_none_or(|(b, _)| rank < *b) {
            let plan = MixedResult {
                assign,
                cleaned: n,
                trials: 0,
                table_len,
            };
            best = Some((rank, plan));
        }
    }
    // lint: allow(panic, reason = "the trial loop runs at least once for any
    // non-empty candidate ladder, which the caller constructs from n >= 1")
    let (_, best) = best.expect("at least one trial ran");
    MixedResult { trials, ..best }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::Key;
    use crate::load::LoadSummary;
    use crate::migration::migration_delta;

    fn rec(key: u64, cost: u64, mem: u64, cur: u32, hash: u32) -> KeyRecord {
        KeyRecord {
            key: Key(key),
            cost,
            mem,
            current: TaskId(cur),
            hash_dest: TaskId(hash),
        }
    }

    fn loads_of(records: &[KeyRecord], assign: &[TaskId], n: usize) -> LoadSummary {
        let mut loads = vec![0u64; n];
        for (r, d) in records.iter().zip(assign) {
            loads[d.index()] += r.cost;
        }
        LoadSummary::new(loads)
    }

    #[test]
    fn acts_like_minmig_when_table_is_unconstrained() {
        let records = vec![
            rec(1, 10, 1000, 0, 0),
            rec(2, 10, 1, 0, 0),
            rec(3, 1, 1, 1, 1),
        ];
        let res = mixed_assign(&records, 2, 0.1, 1.0, usize::MAX);
        assert_eq!(res.cleaned, 0, "n stays 0 when Amax is loose");
        assert_eq!(res.trials, 1);
        // Same move MinMig would pick: the light-state key.
        let plan = migration_delta(&records, |k| {
            res.assign[records.iter().position(|r| r.key == k).unwrap()]
        });
        assert_eq!(plan.cost_bytes(), 1);
    }

    #[test]
    fn cleans_until_table_fits() {
        // Six parked keys (table entries). Amax = 2 forces cleaning. The
        // hash assignment is balanced, so cleaned keys stay at hash and
        // the table shrinks.
        let records = vec![
            rec(1, 5, 10, 1, 0),
            rec(2, 5, 20, 0, 1),
            rec(3, 5, 30, 1, 0),
            rec(4, 5, 40, 0, 1),
            rec(5, 5, 50, 1, 0),
            rec(6, 5, 60, 0, 1),
        ];
        let res = mixed_assign(&records, 2, 0.0, 1.5, 2);
        assert!(res.table_len <= 2, "table {} exceeds Amax=2", res.table_len);
        assert!(res.cleaned >= 4, "cleaned {}", res.cleaned);
        // Cleaning order is smallest-memory-first: keys 1 and 2 clean
        // before 5 and 6. The survivors (if any) are the biggest states.
        let s = loads_of(&records, &res.assign, 2);
        assert!(s.max_theta() < 1e-9);
    }

    #[test]
    fn eta_order_is_smallest_memory_first() {
        let records = vec![
            rec(1, 1, 300, 1, 0),
            rec(2, 1, 100, 1, 0),
            rec(3, 1, 200, 1, 0),
            rec(4, 1, 999, 0, 0), // not a table entry
        ];
        let eta = table_entries_by_eta(&records, EtaOrder::SmallestMem);
        let keys: Vec<u64> = eta.iter().map(|&i| records[i as usize].key.raw()).collect();
        assert_eq!(keys, vec![2, 3, 1]);
    }

    #[test]
    fn bf_never_worse_than_mixed_on_migration() {
        // Randomized-ish workload with a tight table bound.
        let records: Vec<_> = (0..24)
            .map(|i| {
                let cur = (i % 3) as u32;
                let hash = ((i * 7 + 1) % 3) as u32;
                rec(i, 1 + (i * i) % 9, 1 + (i * 13) % 50, cur, hash)
            })
            .collect();
        let mig_of = |assign: &[TaskId]| -> u64 {
            records
                .iter()
                .zip(assign)
                .filter(|(r, &d)| d != r.current)
                .map(|(r, _)| r.mem)
                .sum()
        };
        let mixed = mixed_assign(&records, 3, 0.1, 1.5, 4);
        let bf = mixed_bf_assign(&records, 3, 0.1, 1.5, 4);
        if bf.table_len <= 4 && mixed.table_len <= 4 {
            assert!(
                mig_of(&bf.assign) <= mig_of(&mixed.assign),
                "BF migration {} > Mixed {}",
                mig_of(&bf.assign),
                mig_of(&mixed.assign)
            );
        }
        assert_eq!(
            bf.trials,
            table_entries_by_eta(&records, EtaOrder::SmallestMem).len() + 1
        );
    }

    /// Trials here: n = 4 fits `Amax = 2` with 51 bytes migrated, n = 5
    /// overflows the table, and n = 6 fits again with 112 bytes. A later
    /// infeasible trial must not displace a feasible one, and when none
    /// is feasible the smallest table wins, not the smallest migration.
    #[test]
    fn bf_ranks_feasible_by_migration_and_infeasible_by_table() {
        let records = vec![
            rec(0, 1, 28, 3, 2),
            rec(1, 1, 32, 2, 1),
            rec(2, 11, 29, 1, 0),
            rec(3, 17, 12, 0, 2),
            rec(4, 13, 6, 2, 3),
            rec(5, 13, 5, 3, 0),
        ];
        let mig_of = |assign: &[TaskId]| -> u64 {
            records
                .iter()
                .zip(assign)
                .filter(|(r, &d)| d != r.current)
                .map(|(r, _)| r.mem)
                .sum()
        };
        let bf = mixed_bf_assign(&records, 4, 0.2, 1.5, 2);
        assert_eq!((bf.cleaned, bf.table_len, mig_of(&bf.assign)), (4, 2, 51));
        // Amax = 1: no trial fits; n = 0 migrates nothing but keeps six
        // entries, n = 4 is the first with two.
        let bf = mixed_bf_assign(&records, 4, 0.2, 1.5, 1);
        assert_eq!((bf.cleaned, bf.table_len, mig_of(&bf.assign)), (4, 2, 51));
    }

    #[test]
    fn degenerates_to_full_cleaning_when_needed() {
        // Amax = 0: every entry must clean; Mixed must reach n = N_A.
        let records = vec![rec(1, 5, 10, 1, 0), rec(2, 5, 10, 0, 1)];
        let res = mixed_assign(&records, 2, 0.0, 1.5, 0);
        assert_eq!(res.cleaned, 2);
        // Hash assignment is balanced here, so the final table is empty.
        assert_eq!(res.table_len, 0);
    }

    #[test]
    fn balance_still_met_under_table_pressure() {
        // Skewed workload + tight Amax: balance is the hard constraint in
        // Eq. 3; table may exceed only if even full cleaning cannot fit.
        let records: Vec<_> = (0..40)
            .map(|i| rec(i, if i < 4 { 50 } else { 5 }, 10, 0, (i % 4) as u32))
            .collect();
        let res = mixed_assign(&records, 4, 0.1, 1.5, 8);
        let s = loads_of(&records, &res.assign, 4);
        assert!(s.max_theta() <= 0.3, "θ={}", s.max_theta());
    }

    #[test]
    fn empty_records() {
        let res = mixed_assign(&[], 2, 0.1, 1.5, 10);
        assert!(res.assign.is_empty());
        assert_eq!(res.table_len, 0);
    }
}
