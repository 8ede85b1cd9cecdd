//! Cross-crate integration: the full engine under every key-preserving
//! strategy must deliver exact stateful results while migrating state, and
//! the rebalanced assignment must actually converge toward balance.

mod common;

use common::{observed_counts, reference_counts};
use streambal::baselines::{readj, storm, CoreBalancer, Partitioner, ReadjConfig};
use streambal::core::{BalanceParams, Key, RebalanceStrategy, TaskId};
use streambal::runtime::{replay, Engine, EngineConfig, WordCountOp};
use streambal::workloads::FluctuatingWorkload;

fn skewed_intervals(n: usize, seed: u64) -> Vec<Vec<Key>> {
    let mut w = FluctuatingWorkload::new(400, 1.0, 6_000, 0.6, seed);
    (0..n)
        .map(|i| {
            if i > 0 {
                w.advance(3, |k| TaskId::from((k.raw() % 3) as usize));
            }
            w.tuples()
        })
        .collect()
}

fn run(
    partitioner: Box<dyn Partitioner>,
    intervals: &[Vec<Key>],
) -> streambal::runtime::EngineReport {
    Engine::run(
        EngineConfig {
            n_workers: 3,
            max_workers: 3,
            spin_work: 20,
            window: 100, // retain everything: exact count validation
            ..EngineConfig::default()
        },
        partitioner,
        |_| Box::new(WordCountOp::new()),
        replay(intervals),
        None,
    )
}

#[test]
fn every_key_preserving_strategy_is_exactly_once() {
    let intervals = skewed_intervals(5, 77);
    let expect = reference_counts(&intervals);
    let strategies: Vec<(&str, Box<dyn Partitioner>)> = vec![
        ("hash", Box::new(storm(3))),
        (
            "mixed",
            Box::new(CoreBalancer::new(
                3,
                100,
                RebalanceStrategy::Mixed,
                BalanceParams {
                    theta_max: 0.05,
                    ..BalanceParams::default()
                },
            )),
        ),
        (
            "mintable",
            Box::new(CoreBalancer::new(
                3,
                100,
                RebalanceStrategy::MinTable,
                BalanceParams {
                    theta_max: 0.05,
                    ..BalanceParams::default()
                },
            )),
        ),
        (
            "minmig",
            Box::new(CoreBalancer::new(
                3,
                100,
                RebalanceStrategy::MinMig,
                BalanceParams {
                    theta_max: 0.05,
                    ..BalanceParams::default()
                },
            )),
        ),
        (
            "readj",
            Box::new(readj(
                3,
                100,
                ReadjConfig {
                    theta_max: 0.05,
                    sigma: 0.01,
                    max_actions: 256,
                },
            )),
        ),
    ];
    for (name, p) in strategies {
        let report = run(p, &intervals);
        assert_eq!(
            observed_counts(&report, true),
            expect,
            "{name}: counts diverged (migrations must be exactly-once)"
        );
    }
}

#[test]
fn mixed_migrates_and_balances_worker_load() {
    // 10 intervals, not 6: Mixed's spread advantage accrues over the time
    // spent under rebalanced tables, while its reaction latency (pause →
    // migrate → resume) is paid per rebalance and inflates when the test
    // binary's engines contend for cores. A longer run keeps the
    // advantage comfortably above scheduling noise so the zero-margin
    // comparison below cannot tie.
    let intervals = skewed_intervals(10, 99);
    let mixed = run(
        Box::new(CoreBalancer::new(
            3,
            100,
            RebalanceStrategy::Mixed,
            BalanceParams {
                theta_max: 0.05,
                ..BalanceParams::default()
            },
        )),
        &intervals,
    );
    assert!(mixed.rebalances > 0, "fluctuating skew must trigger");
    assert!(mixed.migrated_bytes > 0);

    let hash = run(Box::new(storm(3)), &intervals);
    let spread = |per: &[u64]| {
        let total: u64 = per.iter().sum();
        let max = *per.iter().max().unwrap();
        max as f64 / (total as f64 / per.len() as f64)
    };
    let mixed_spread = spread(&mixed.per_worker_processed[..3]);
    let hash_spread = spread(&hash.per_worker_processed[..3]);
    assert!(
        mixed_spread < hash_spread,
        "mixed per-worker spread {mixed_spread:.3} must beat hash {hash_spread:.3}"
    );
}

#[test]
fn migration_volume_respects_strategy_ordering() {
    // MinTable cleans the whole table every rebalance; MinMig moves the
    // minimum. Mixed sits between. Compare total migrated bytes on the
    // same input.
    let intervals = skewed_intervals(6, 123);
    let bytes_of = |strategy: RebalanceStrategy| {
        let report = run(
            Box::new(CoreBalancer::new(
                3,
                100,
                strategy,
                BalanceParams {
                    theta_max: 0.05,
                    table_max: usize::MAX,
                    ..BalanceParams::default()
                },
            )),
            &intervals,
        );
        report.migrated_bytes
    };
    let minmig = bytes_of(RebalanceStrategy::MinMig);
    let mintable = bytes_of(RebalanceStrategy::MinTable);
    assert!(
        minmig <= mintable,
        "MinMig ({minmig}) must not migrate more than MinTable ({mintable})"
    );
}
