//! Partial Key Grouping (PKG) — Nasir et al., ICDE'15 — and the
//! key-spreading partitioner it shares with [`shuffle()`](crate::shuffle()).
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
//! estimates run for the whole stream. The partitioner is the engine
//! source's own [`SourceRouter`] holding the two-choice view, so the
//! simulator, the controller and the source route every tuple by one
//! rule.

use streambal_core::{IntervalStats, Key, RebalanceOutcome, SourceRouter, TaskId};

use crate::{Partitioner, RoutingView};

/// PKG's power-of-two-choices router over `n_tasks` instances, with
/// local load estimates.
pub fn pkg(n_tasks: usize) -> KeySpreader {
    KeySpreader::new(RoutingView::TwoChoice { n_tasks })
}

/// A strategy that spreads each key's tuples over several workers —
/// PKG's two choices or shuffle's round robin — with no table to
/// rebalance. Built by [`pkg()`] and [`shuffle()`](crate::shuffle()); it is a
/// [`SourceRouter`] over its own view, and scales by updating that view.
#[derive(Debug)]
pub struct KeySpreader(SourceRouter);

impl KeySpreader {
    /// A spreader over `view`, a two-choice or round-robin view.
    pub(crate) fn new(view: RoutingView) -> Self {
        let router = SourceRouter::from_view(view);
        assert!(router.n_tasks() > 0, "need at least one task");
        KeySpreader(router)
    }

    /// This strategy's view at `n_tasks` slots.
    fn view(&self, n_tasks: usize) -> RoutingView {
        match self.0 {
            SourceRouter::TwoChoice { .. } => RoutingView::TwoChoice { n_tasks },
            _ => RoutingView::RoundRobin { n_tasks },
        }
    }
}

impl Partitioner for KeySpreader {
    fn name(&self) -> String {
        match self.0 {
            SourceRouter::TwoChoice { .. } => "PKG",
            _ => "Ideal",
        }
        .into()
    }

    fn n_tasks(&self) -> usize {
        self.0.n_tasks()
    }

    #[inline]
    fn route(&mut self, key: Key) -> TaskId {
        self.0.route(key)
    }

    fn end_interval(&mut self, _stats: IntervalStats) -> Option<RebalanceOutcome> {
        None
    }

    fn add_task(&mut self) -> TaskId {
        let n = self.n_tasks();
        self.0.update(self.view(n + 1));
        TaskId::from(n)
    }

    fn scale_in(&mut self, victim: TaskId, _live: &[Key]) {
        let n = self.n_tasks();
        assert!(n > 1, "cannot scale in below one task");
        assert_eq!(
            victim.index(),
            n - 1,
            "scale-in retires the highest-numbered task"
        );
        // Both spread keys anyway: shrinking PKG's choice space re-pairs
        // some keys, which is fine under partial/merge semantics.
        self.0.update(self.view(n - 1));
    }

    fn routing_view(&self) -> RoutingView {
        self.view(self.n_tasks())
    }

    fn preserves_key_semantics(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streambal_hashring::two_choices;

    /// A key's two candidate workers.
    fn choices(n_tasks: usize, key: Key) -> (TaskId, TaskId) {
        let (a, b) = two_choices(key.raw(), n_tasks);
        (TaskId::from(a), TaskId::from(b))
    }

    #[test]
    fn routes_only_to_the_two_choices() {
        let mut p = pkg(8);
        assert_eq!(p.name(), "PKG");
        for k in 0..500u64 {
            let (a, b) = choices(8, Key(k));
            for _ in 0..10 {
                let d = p.route(Key(k));
                assert!(d == a || d == b, "key {k} routed off-choice");
            }
        }
    }

    #[test]
    fn balances_a_single_hot_key_across_two_workers() {
        let mut p = pkg(4);
        let hot = Key(42);
        let (a, b) = choices(4, hot);
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
        let mut pkg = pkg(n);
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
        let mut p = pkg(2);
        assert_eq!(p.add_task(), TaskId(2));
        assert_eq!(p.n_tasks(), 3);
        for k in 0..100u64 {
            assert!(p.route(Key(k)).index() < 3);
        }
    }

    /// Scale-in drops the victim's estimate and keeps the survivors'.
    #[test]
    fn scale_in_shrinks_choices() {
        let mut p = pkg(4);
        for k in 0..100u64 {
            p.route(Key(k));
        }
        p.scale_in(TaskId(3), &[]);
        assert_eq!(p.n_tasks(), 3);
        let SourceRouter::TwoChoice { est, .. } = &p.0 else {
            panic!("PKG holds a two-choice router");
        };
        assert_eq!(est.len(), 3);
        assert!(est.iter().sum::<u64>() > 0, "survivor estimates kept");
        for k in 0..500u64 {
            assert!(p.route(Key(k)).index() < 3, "routed to retired task");
        }
    }
}
