//! Baseline partitioners the paper compares against (§V / §VI).
//!
//! * [`storm`] — static consistent hashing, i.e. vanilla Storm key
//!   grouping ("Storm" in the figures).
//! * [`shuffle()`] — key-oblivious round-robin, the "Ideal" throughput
//!   bound (unusable for stateful operators).
//! * [`pkg()`] — Partial Key Grouping [Nasir et al., ICDE'15]:
//!   power-of-two-choices routing that *splits* each key across two
//!   workers; needs a downstream merge operator for aggregations and
//!   cannot express joins.
//! * [`readj`] — Gedik's partitioning-function rebalance [VLDBJ'14]
//!   ("Readj"): hash + explicit table like ours, but rebalanced by
//!   move-back plus exhaustive task/key pair move-and-swap search over
//!   hot keys ([`readj_rebalance`]), gated by the σ threshold.
//! * [`CoreBalancer`] — `streambal-core`'s strategies (Mixed, MinTable,
//!   …) under the name the harness uses.
//!
//! There are two [`Partitioner`] implementations behind these names.
//! Storm, Readj and the core strategies route through a table and are
//! all one type, `streambal_core::Rebalancer` (= [`CoreBalancer`]), with
//! no planner, Readj's planner, or a §III algorithm. Shuffle and PKG
//! spread keys and are one type, [`KeySpreader`]: the engine source's
//! `SourceRouter` over a round-robin or two-choice view, so the
//! simulator and the source route them by the same code. The strategy
//! interface is owned by `streambal-core` (re-exported here for
//! convenience): the simulator (`streambal-sim`) and engine
//! (`streambal-runtime`) depend on the core trait directly and never on
//! this crate.

#![forbid(unsafe_code)]

pub mod core_wrapper;
pub mod hash_only;
pub mod pkg;
pub mod readj;
pub mod shuffle;

pub use core_wrapper::CoreBalancer;
pub use hash_only::storm;
pub use pkg::{pkg, KeySpreader};
pub use readj::{readj, readj_rebalance, ReadjConfig};
pub use shuffle::shuffle;

// Convenience re-exports of the strategy interface, which moved to
// `streambal-core` (the drivers' dependency); implementations here use it
// through these paths.
pub use streambal_core::{Partitioner, RoutingView};

#[cfg(test)]
mod tests {
    use super::*;
    use streambal_core::Key;

    /// Every baseline must route within range and be deterministic at the
    /// interval granularity (PKG may vary with load state, but stays in
    /// range).
    #[test]
    fn all_baselines_route_in_range() {
        let mut parts: Vec<Box<dyn Partitioner>> = vec![
            Box::new(storm(5)),
            Box::new(shuffle(5)),
            Box::new(pkg(5)),
            Box::new(readj(5, 2, ReadjConfig::default())),
        ];
        for p in parts.iter_mut() {
            for k in 0..1000u64 {
                let d = p.route(Key(k));
                assert!(d.index() < 5, "{} routed out of range", p.name());
            }
        }
    }

    /// Batched routing must be observationally identical to per-key
    /// routing — including for stateful strategies (shuffle cursor, PKG
    /// estimates), compared against a freshly built twin.
    #[test]
    fn route_batch_matches_per_key_for_all_baselines() {
        use streambal_core::{BalanceParams, RebalanceStrategy, TaskId};
        fn fresh_pair() -> Vec<(Box<dyn Partitioner>, Box<dyn Partitioner>)> {
            fn build() -> Vec<Box<dyn Partitioner>> {
                vec![
                    Box::new(storm(5)),
                    Box::new(shuffle(5)),
                    Box::new(pkg(5)),
                    Box::new(readj(5, 2, ReadjConfig::default())),
                    Box::new(CoreBalancer::new(
                        5,
                        2,
                        RebalanceStrategy::Mixed,
                        BalanceParams::default(),
                    )),
                ]
            }
            build().into_iter().zip(build()).collect()
        }
        let keys: Vec<Key> = (0..2_000u64).map(Key).collect();
        for (mut batched, mut per_key) in fresh_pair() {
            let name = batched.name();
            let mut out = Vec::new();
            batched.route_batch(&keys, &mut out);
            let expect: Vec<TaskId> = keys.iter().map(|&k| per_key.route(k)).collect();
            assert_eq!(out, expect, "{name}: batch diverged from per-key");
        }
    }

    /// Every baseline supports a scale-out → scale-in round trip and never
    /// routes to the retired task afterwards.
    #[test]
    fn scale_round_trip_for_all_baselines() {
        use streambal_core::{BalanceParams, RebalanceStrategy};
        let live: Vec<Key> = (0..500u64).map(Key).collect();
        let parts: Vec<Box<dyn Partitioner>> = vec![
            Box::new(storm(3)),
            Box::new(shuffle(3)),
            Box::new(pkg(3)),
            Box::new(readj(3, 2, ReadjConfig::default())),
            Box::new(CoreBalancer::new(
                3,
                2,
                RebalanceStrategy::Mixed,
                BalanceParams::default(),
            )),
        ];
        for mut p in parts {
            let name = p.name();
            let new = p.scale_out(&live);
            assert_eq!(new.index(), 3, "{name}");
            assert_eq!(p.n_tasks(), 4, "{name}");
            p.scale_in(new, &live);
            assert_eq!(p.n_tasks(), 3, "{name}");
            for &k in &live {
                assert!(p.route(k).index() < 3, "{name}: routed to retired task");
            }
        }
    }

    #[test]
    fn key_semantics_flags() {
        assert!(storm(2).preserves_key_semantics());
        assert!(!pkg(2).preserves_key_semantics());
        assert!(readj(2, 1, ReadjConfig::default()).preserves_key_semantics());
    }
}
