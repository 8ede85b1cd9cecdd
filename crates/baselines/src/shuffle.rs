//! Round-robin shuffle — the "Ideal" bound of Fig. 13.
//!
//! Ignoring keys entirely yields perfect load spread, but breaks key
//! grouping: stateful aggregation is impossible. The paper plots it as the
//! theoretical throughput/latency limit that key-aware schemes approach.

use streambal_core::RoutingView;

use crate::KeySpreader;

/// Key-oblivious round-robin over `n_tasks` instances ("Ideal" in the
/// figures). Its cursor survives scaling, wrapped into the new range.
pub fn shuffle(n_tasks: usize) -> KeySpreader {
    KeySpreader::new(RoutingView::RoundRobin { n_tasks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Partitioner;
    use streambal_core::{Key, TaskId};

    #[test]
    fn perfectly_even_distribution() {
        let mut p = shuffle(4);
        assert_eq!(p.name(), "Ideal");
        let mut counts = [0usize; 4];
        for k in 0..4000u64 {
            counts[p.route(Key(k % 3)).index()] += 1; // skewed keys, even spread
        }
        assert_eq!(counts, [1000; 4]);
    }

    #[test]
    fn scale_out() {
        let mut p = shuffle(2);
        assert_eq!(p.add_task(), TaskId(2));
        assert_eq!(p.n_tasks(), 3);
        let hits: Vec<usize> = (0..3).map(|_| p.route(Key(0)).index()).collect();
        assert_eq!(hits, vec![0, 1, 2]);
    }

    #[test]
    fn scale_in_shrinks_the_cycle() {
        let mut p = shuffle(3);
        p.route(Key(0));
        p.route(Key(0)); // cursor at 2 — about to point at the victim
        p.scale_in(TaskId(2), &[]);
        assert_eq!(p.n_tasks(), 2);
        let hits: Vec<usize> = (0..4).map(|_| p.route(Key(0)).index()).collect();
        assert_eq!(hits, vec![0, 1, 0, 1], "cursor wrapped into range");
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn zero_tasks_panics() {
        shuffle(0);
    }
}
