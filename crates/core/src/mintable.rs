//! MinTable (paper §III-B, Algorithm 2): minimize routing-table size.
//!
//! Phase I erases the entire routing table (every key virtually moves back
//! to its hash destination); Phases II–III rebalance with the
//! highest-computation-cost-first criteria, so the fewest possible keys
//! need explicit entries. The price is migration volume: cleaned keys that
//! were parked away from `h(k)` physically move back, which Fig. 8b/9b/10b
//! show costs ~3× Mixed's migration.

use crate::key::TaskId;
use crate::llfd::{complete, try_llfd, Arena, Criteria, LlfdOptions, Overflow, Rows};
use crate::stats::KeyRecord;

/// Runs MinTable; returns the new assignment, parallel to `records`.
pub fn mintable_assign(records: &[KeyRecord], n_tasks: usize, theta_max: f64) -> Vec<TaskId> {
    complete(mintable_over(Rows::full(records, n_tasks), theta_max))
}

/// [`mintable_assign`] over `rows`, or the task whose horizon a scan
/// reached.
pub(crate) fn mintable_over(rows: Rows<'_>, theta_max: f64) -> Result<Vec<TaskId>, Overflow> {
    // Phase I: clean the table — everyone starts from the hash destination.
    let mut arena = Arena::over(rows, Criteria::HighestCost, |_, r| r.hash_dest);
    // Phase II: drain overloaded instances, highest cost first.
    let candidates = arena.drain(theta_max)?;
    // Phase III: LLFD.
    try_llfd(&mut arena, candidates, theta_max, LlfdOptions::default())?;
    Ok(arena.into_assignment())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::Key;
    use crate::load::LoadSummary;

    fn rec(key: u64, cost: u64, cur: u32, hash: u32) -> KeyRecord {
        KeyRecord {
            key: Key(key),
            cost,
            mem: cost,
            current: TaskId(cur),
            hash_dest: TaskId(hash),
        }
    }

    /// The right-hand example of Fig. 4: table {(k3,d2),(k5,d1)} is cleaned
    /// first (k3 back to d1, k5 back to d2), then balancing yields a
    /// 2-entry table instead of LLFD-without-cleaning's 4 entries.
    #[test]
    fn fig4_right_example_small_table() {
        let records = vec![
            rec(1, 7, 0, 0),
            rec(2, 4, 0, 0),
            rec(3, 2, 1, 0), // table entry: parked on d2, hash says d1
            rec(4, 1, 1, 1),
            rec(5, 5, 0, 1), // table entry: parked on d1, hash says d2
            rec(6, 1, 1, 1),
        ];
        let assign = mintable_assign(&records, 2, 0.0);
        let mut loads = [0u64; 2];
        let mut table_entries = 0;
        for (r, d) in records.iter().zip(&assign) {
            loads[d.index()] += r.cost;
            if *d != r.hash_dest {
                table_entries += 1;
            }
        }
        assert_eq!(loads, [10, 10], "absolute balance required");
        assert_eq!(table_entries, 2, "paper: result table has two entries");
    }

    #[test]
    fn cleaning_moves_parked_keys_back_when_already_balanced() {
        // Hash assignment is perfectly balanced; the stale table entry gets
        // dropped by cleaning and never re-added.
        let records = vec![
            rec(1, 5, 1, 0), // parked on d2 but hash wants d1
            rec(2, 5, 0, 1), // parked on d1 but hash wants d2
        ];
        let assign = mintable_assign(&records, 2, 0.0);
        assert_eq!(assign[0], TaskId(0));
        assert_eq!(assign[1], TaskId(1));
    }

    #[test]
    fn balances_skewed_hash_assignment() {
        // 20 keys all hashed to d0 of 4: cleaning does nothing (they're
        // already at hash), LLFD spreads them.
        let records: Vec<_> = (0..20).map(|i| rec(i, 10, 0, 0)).collect();
        let assign = mintable_assign(&records, 4, 0.0);
        let mut loads = vec![0u64; 4];
        for (r, d) in records.iter().zip(&assign) {
            loads[d.index()] += r.cost;
        }
        let s = LoadSummary::new(loads);
        assert!(s.max_theta() < 1e-9, "equal keys must balance exactly");
    }

    #[test]
    fn respects_theta_tolerance() {
        let records: Vec<_> = (0..40).map(|i| rec(i, 1 + i % 7, 0, 0)).collect();
        let assign = mintable_assign(&records, 4, 0.08);
        let mut loads = vec![0u64; 4];
        for (r, d) in records.iter().zip(&assign) {
            loads[d.index()] += r.cost;
        }
        let s = LoadSummary::new(loads);
        assert!(
            s.max_theta() <= 0.08 + 0.15,
            "best-effort balance, got θ={}",
            s.max_theta()
        );
    }

    #[test]
    fn empty_records() {
        assert!(mintable_assign(&[], 3, 0.1).is_empty());
    }
}
