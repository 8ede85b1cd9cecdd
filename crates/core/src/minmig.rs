//! MinMig (paper §III-B, Algorithm 3): minimize migration volume.
//!
//! No cleaning at all — existing routing-table placements are kept — and
//! both the Phase-II drain and the LLFD exchange use the migration-priority
//! index `γᵢ(k, w) = cᵢ(k)^β / Sᵢ(k, w)`: keys that shift the most load per
//! byte of state moved go first. The cost is unbounded table growth: after
//! many adjustments the table converges to `(N_D − 1)/N_D · K` entries
//! (paper Fig. 18), which is why MinMig is not run standalone in the
//! paper's system experiments.

use crate::key::TaskId;
use crate::llfd::{complete, try_llfd, Arena, Criteria, LlfdOptions, Overflow, Rows};
use crate::stats::KeyRecord;

/// Runs MinMig; returns the new assignment, parallel to `records`.
pub fn minmig_assign(
    records: &[KeyRecord],
    n_tasks: usize,
    theta_max: f64,
    beta: f64,
) -> Vec<TaskId> {
    complete(minmig_over(Rows::full(records, n_tasks), theta_max, beta))
}

/// [`minmig_assign`] over `rows`, or the task whose horizon a scan
/// reached.
pub(crate) fn minmig_over(
    rows: Rows<'_>,
    theta_max: f64,
    beta: f64,
) -> Result<Vec<TaskId>, Overflow> {
    // Phase I: do nothing — start from the current assignment.
    let mut arena = Arena::over(rows, Criteria::LargestGamma { beta }, |_, r| r.current);
    // Phase II: drain overloaded instances, largest γ first.
    let candidates = arena.drain(theta_max)?;
    // Phase III: LLFD with the same ψ.
    try_llfd(&mut arena, candidates, theta_max, LlfdOptions::default())?;
    Ok(arena.into_assignment())
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

    #[test]
    fn prefers_moving_low_memory_keys() {
        // d0 overloaded by two equal-cost keys; one has tiny state, one
        // huge. MinMig must move the tiny-state key.
        let records = vec![
            rec(1, 10, 1_000_000, 0, 0), // heavy state
            rec(2, 10, 1, 0, 0),         // light state
            rec(3, 1, 1, 1, 1),
        ];
        let assign = minmig_assign(&records, 2, 0.1, 1.0);
        let plan = migration_delta(&records, |k| {
            assign[records.iter().position(|r| r.key == k).unwrap()]
        });
        assert_eq!(plan.keys_moved(), 1);
        assert_eq!(plan.moves()[0].key, Key(2), "light-state key moves");
        assert_eq!(plan.cost_bytes(), 1);
    }

    #[test]
    fn keeps_existing_table_placements() {
        // Balanced via an existing table entry: nothing should move even
        // though F ≠ h for key 1 (no cleaning in MinMig).
        let records = vec![rec(1, 5, 100, 1, 0), rec(2, 5, 100, 0, 0)];
        let assign = minmig_assign(&records, 2, 0.0, 1.5);
        assert_eq!(assign[0], TaskId(1), "parked key stays parked");
        assert_eq!(assign[1], TaskId(0));
    }

    #[test]
    fn balances_under_skew() {
        let records: Vec<_> = (0..30).map(|i| rec(i, 4 + i % 5, 10, 0, 0)).collect();
        let assign = minmig_assign(&records, 3, 0.05, 1.5);
        let mut loads = vec![0u64; 3];
        for (r, d) in records.iter().zip(&assign) {
            loads[d.index()] += r.cost;
        }
        let s = LoadSummary::new(loads);
        assert!(s.max_theta() <= 0.25, "θ={}", s.max_theta());
    }

    #[test]
    fn beta_trades_cost_against_memory() {
        // Key A: cost 9, mem 9 → γ₁ = 1 (β=1); key B: cost 4, mem 2 → γ₁=2.
        // With β=1 B drains first; with β=2, γ(A)=9 > γ(B)=8, A first.
        let a = rec(1, 9, 9, 0, 0);
        let b = rec(2, 4, 2, 0, 0);
        assert!(b.gamma(1.0) > a.gamma(1.0));
        assert!(a.gamma(2.0) > b.gamma(2.0));
    }

    #[test]
    fn migration_cost_not_higher_than_mintable_on_parked_workload() {
        // Workload where the table already does the balancing: MinMig
        // moves nothing, MinTable moves the parked keys back and forth.
        use crate::mintable::mintable_assign;
        let records = vec![
            rec(1, 10, 500, 1, 0), // parked hot key
            rec(2, 10, 500, 0, 1), // parked hot key
            rec(3, 1, 10, 0, 0),
            rec(4, 1, 10, 1, 1),
        ];
        let mig_of = |assign: &[TaskId]| {
            migration_delta(&records, |k| {
                assign[records.iter().position(|r| r.key == k).unwrap()]
            })
            .cost_bytes()
        };
        let minmig = mig_of(&minmig_assign(&records, 2, 0.0, 1.5));
        let mintab = mig_of(&mintable_assign(&records, 2, 0.0));
        assert!(minmig <= mintab, "minmig={minmig} mintable={mintab}");
        assert_eq!(minmig, 0, "already balanced ⇒ no moves");
    }

    #[test]
    fn empty_records() {
        assert!(minmig_assign(&[], 2, 0.1, 1.5).is_empty());
    }
}
