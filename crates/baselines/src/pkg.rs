//! Partial Key Grouping (PKG) — Nasir et al., ICDE'15.
//!
//! Each key gets *two* candidate workers from independent hash functions;
//! every tuple goes to whichever candidate the router currently estimates
//! as less loaded (power of two choices). Key state is therefore split
//! across two workers:
//!
//! * aggregations need a downstream **merge** operator combining the two
//!   partial results per key (the runtime provides the partial/merge
//!   topology; the merge period `p` and max-pending bound are modelled
//!   there — the paper tuned `p = 10 ms`, max pending 50);
//! * joins are **not expressible** (`preserves_key_semantics() == false`),
//!   which is why PKG is absent from the paper's Fig. 14b/16.
//!
//! PKG never migrates, and `end_interval` changes nothing: the load
//! estimates run for the whole stream, as the engine source's
//! `SourceRouter::TwoChoice` keeps them, so both route every tuple alike.

use streambal_core::{IntervalStats, Key, RebalanceOutcome, TaskId};
use streambal_hashring::two_choices;

use crate::{Partitioner, RoutingView};

/// Power-of-two-choices router with local load estimation.
#[derive(Debug)]
pub struct PkgPartitioner {
    n_tasks: usize,
    /// Tuples routed to each task so far.
    est_load: Vec<u64>,
}

impl PkgPartitioner {
    /// Creates a PKG router over `n_tasks` instances.
    pub fn new(n_tasks: usize) -> Self {
        assert!(n_tasks > 0, "need at least one task");
        PkgPartitioner {
            n_tasks,
            est_load: vec![0; n_tasks],
        }
    }

    /// The two candidate workers of a key (exposed so the runtime's merge
    /// operator knows which partials to combine).
    pub fn choices(&self, key: Key) -> (TaskId, TaskId) {
        let (a, b) = two_choices(key.raw(), self.n_tasks);
        (TaskId::from(a), TaskId::from(b))
    }

    /// Current local load estimates (for tests/diagnostics).
    pub fn estimates(&self) -> &[u64] {
        &self.est_load
    }
}

impl Partitioner for PkgPartitioner {
    fn name(&self) -> String {
        "PKG".into()
    }

    fn n_tasks(&self) -> usize {
        self.n_tasks
    }

    #[inline]
    fn route(&mut self, key: Key) -> TaskId {
        let (a, b) = two_choices(key.raw(), self.n_tasks);
        // Lesser-loaded choice; ties toward the first hash.
        let d = if self.est_load[a] <= self.est_load[b] {
            a
        } else {
            b
        };
        self.est_load[d] += 1;
        TaskId::from(d)
    }

    fn end_interval(&mut self, _stats: IntervalStats) -> Option<RebalanceOutcome> {
        None
    }

    fn add_task(&mut self) -> TaskId {
        self.n_tasks += 1;
        self.est_load.push(0);
        TaskId::from(self.n_tasks - 1)
    }

    fn scale_in(&mut self, victim: TaskId, _live: &[Key]) {
        assert!(self.n_tasks > 1, "cannot scale in below one task");
        assert_eq!(
            victim.index(),
            self.n_tasks - 1,
            "scale-in retires the highest-numbered task"
        );
        // PKG splits keys anyway: shrinking the choice space re-pairs
        // some keys, which is fine under partial/merge semantics.
        self.n_tasks -= 1;
        self.est_load.truncate(self.n_tasks);
    }

    fn routing_view(&self) -> RoutingView {
        RoutingView::TwoChoice {
            n_tasks: self.n_tasks,
        }
    }

    fn preserves_key_semantics(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_only_to_the_two_choices() {
        let mut p = PkgPartitioner::new(8);
        for k in 0..500u64 {
            let (a, b) = p.choices(Key(k));
            for _ in 0..10 {
                let d = p.route(Key(k));
                assert!(d == a || d == b, "key {k} routed off-choice");
            }
        }
    }

    #[test]
    fn balances_a_single_hot_key_across_two_workers() {
        let mut p = PkgPartitioner::new(4);
        let hot = Key(42);
        let (a, b) = p.choices(hot);
        let mut counts = [0u64; 4];
        for _ in 0..10_000 {
            counts[p.route(hot).index()] += 1;
        }
        // The hot key's tuples split ~50/50 between its two choices.
        assert_eq!(counts[a.index()] + counts[b.index()], 10_000);
        let ratio = counts[a.index()] as f64 / 10_000.0;
        assert!((0.45..=0.55).contains(&ratio), "split {ratio}");
    }

    #[test]
    fn beats_single_choice_hashing_under_skew() {
        // Zipf-ish: key i appears ~ 1/i times. Compare max load of PKG vs
        // single-hash.
        let n = 8usize;
        let mut pkg = PkgPartitioner::new(n);
        let mut hash_load = vec![0u64; n];
        let mut pkg_load = vec![0u64; n];
        for i in 1..=200u64 {
            let reps = 2000 / i;
            for _ in 0..reps {
                pkg_load[pkg.route(Key(i)).index()] += 1;
                let d = streambal_hashring::mix64(i) % n as u64;
                hash_load[d as usize] += 1;
            }
        }
        let max_pkg = *pkg_load.iter().max().unwrap();
        let max_hash = *hash_load.iter().max().unwrap();
        assert!(
            max_pkg < max_hash,
            "PKG max {max_pkg} should beat hash max {max_hash}"
        );
    }

    #[test]
    fn scale_out_extends_choices() {
        let mut p = PkgPartitioner::new(2);
        p.add_task();
        assert_eq!(p.n_tasks(), 3);
        for k in 0..100u64 {
            assert!(p.route(Key(k)).index() < 3);
        }
    }

    #[test]
    fn scale_in_shrinks_choices() {
        let mut p = PkgPartitioner::new(4);
        for k in 0..100u64 {
            p.route(Key(k));
        }
        p.scale_in(TaskId(3), &[]);
        assert_eq!(p.n_tasks(), 3);
        assert_eq!(p.estimates().len(), 3);
        for k in 0..500u64 {
            assert!(p.route(Key(k)).index() < 3, "routed to retired task");
        }
    }
}
