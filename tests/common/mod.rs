//! The workload the engine integration suites share (`chaos.rs`,
//! `trace.rs`, `cross_partitioner.rs`; `end_to_end_rebalance.rs` uses
//! its reference and observed counts): a skewed, fluctuating,
//! migration-heavy stream over three workers, the partitioners under
//! test, one way to run the engine on it, and the exact per-key counts
//! every run is checked against.

// Each suite uses its own subset of this module.
#![allow(dead_code)]

use std::time::Duration;

use streambal::baselines::{pkg, readj, shuffle, storm, CoreBalancer, ReadjConfig};
use streambal::core::{BalanceParams, RebalanceStrategy};
use streambal::hashring::FxHashMap;
use streambal::prelude::{Key, Partitioner, TaskId};
use streambal::runtime::{
    replay, Collector, Engine, EngineConfig, EngineReport, Operator, SumCollector, WordCountOp,
};
use streambal::workloads::FluctuatingWorkload;

pub const N_TASKS: usize = 3;
pub const KEYS: usize = 400;
pub const ZIPF: f64 = 1.0;
pub const TUPLES: u64 = 6_000;
pub const FLUCTUATION: f64 = 0.6;
pub const SEED: u64 = 4242;
pub const INTERVALS: usize = 5;

/// Hard ceiling on one engine run. A wedged protocol panics the test
/// instead of hanging CI.
pub const RUN_TIMEOUT: Duration = Duration::from_secs(120);

/// Every partitioner under test, freshly constructed.
pub fn all_partitioners() -> Vec<Box<dyn Partitioner>> {
    let params = BalanceParams {
        theta_max: 0.05,
        ..BalanceParams::default()
    };
    let mut out: Vec<Box<dyn Partitioner>> = vec![
        Box::new(storm(N_TASKS)),
        Box::new(shuffle(N_TASKS)),
        Box::new(pkg(N_TASKS)),
        Box::new(readj(
            N_TASKS,
            100,
            ReadjConfig {
                theta_max: 0.05,
                sigma: 0.01,
                max_actions: 512,
            },
        )),
    ];
    for strategy in [
        RebalanceStrategy::Mixed,
        RebalanceStrategy::MinTable,
        RebalanceStrategy::MinMig,
        RebalanceStrategy::Simple,
    ] {
        out.push(Box::new(CoreBalancer::new(N_TASKS, 100, strategy, params)));
    }
    out
}

/// A fresh CoreBalancer/Mixed: the workhorse strategy for targeted
/// tests, since it migrates on every interval of this workload.
pub fn mixed_balancer() -> Box<dyn Partitioner> {
    Box::new(CoreBalancer::new(
        N_TASKS,
        100,
        RebalanceStrategy::Mixed,
        BalanceParams {
            theta_max: 0.05,
            ..BalanceParams::default()
        },
    ))
}

/// The workload's keys, one vector per interval.
pub fn keyed_intervals() -> Vec<Vec<Key>> {
    let mut w = FluctuatingWorkload::new(KEYS, ZIPF, TUPLES, FLUCTUATION, SEED);
    (0..INTERVALS)
        .map(|i| {
            if i > 0 {
                w.advance(N_TASKS, |k| TaskId::from(k.raw() as usize % N_TASKS));
            }
            w.tuples()
        })
        .collect()
}

/// Per-key tuple counts of `intervals`.
pub fn reference_counts(intervals: &[Vec<Key>]) -> FxHashMap<Key, u64> {
    let mut m = FxHashMap::default();
    for iv in intervals {
        for &k in iv {
            *m.entry(k).or_insert(0) += 1;
        }
    }
    m
}

/// The workload's hottest key, ties broken low for determinism: the key
/// whose split moves the most replica traffic.
pub fn hottest_key() -> Key {
    let counts = reference_counts(&keyed_intervals());
    let hottest = counts
        .into_iter()
        .max_by_key(|&(k, c)| (c, std::cmp::Reverse(k.raw())));
    hottest.expect("non-empty workload").0
}

/// Runs the engine on the workload — with partial emission and a merge
/// stage when `p` splits keys — panicking (not hanging) if the run does
/// not terminate.
pub fn run_engine(label: &str, config: EngineConfig, p: Box<dyn Partitioner>) -> EngineReport {
    run_feed(label, config, p, keyed_intervals())
}

/// Runs the engine on `feed`, one key vector per interval — with partial
/// emission and a merge stage when `p` splits keys — panicking (not
/// hanging) if the run does not terminate.
pub fn run_feed(
    label: &str,
    config: EngineConfig,
    p: Box<dyn Partitioner>,
    feed: Vec<Vec<Key>>,
) -> EngineReport {
    run_paced(label, config, p, feed, Duration::ZERO)
}

/// [`run_feed`] with the feeder sleeping `pace` before each interval.
pub fn run_paced(
    label: &str,
    config: EngineConfig,
    p: Box<dyn Partitioner>,
    feed: Vec<Vec<Key>>,
    pace: Duration,
) -> EngineReport {
    let preserves = p.preserves_key_semantics();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let report = Engine::run(
            config,
            p,
            |_| {
                if preserves {
                    Box::new(WordCountOp::new())
                } else {
                    // Split keys need partial emission + a merge stage.
                    Box::new(WordCountOp::with_partial_emission(8))
                }
            },
            {
                let mut feed = replay(&feed);
                move |interval| {
                    std::thread::sleep(pace);
                    feed(interval)
                }
            },
            (!preserves).then(|| Box::new(SumCollector::new()) as Box<dyn Collector>),
        );
        let _ = tx.send(report);
    });
    rx.recv_timeout(RUN_TIMEOUT)
        .unwrap_or_else(|_| panic!("{label}: engine run did not terminate"))
}

/// Per key, what a run observed: worker state where key grouping holds,
/// summed over workers — a key's count may split across workers after a
/// re-route, a rollback or a scale-out, and only the sum must balance —
/// and the merge collector's rows where it does not.
pub fn observed_counts(report: &EngineReport, preserves: bool) -> FxHashMap<Key, u64> {
    let mut got: FxHashMap<Key, u64> = FxHashMap::default();
    if preserves {
        let op = WordCountOp::new();
        for (k, blob) in &report.final_states {
            *got.entry(*k).or_insert(0) += op.tuples_in_blob(blob);
        }
    } else {
        for &(k, v) in &report.collector_result {
            *got.entry(Key(k)).or_insert(0) += v;
        }
    }
    got
}

/// What every fault-free run must show: each fed tuple processed once,
/// the reference count for every key, and no protocol error.
pub fn assert_exact(label: &str, report: &EngineReport, preserves: bool) {
    let intervals = keyed_intervals();
    let total: u64 = intervals.iter().map(|iv| iv.len() as u64).sum();
    assert_eq!(report.processed, total, "{label}: tuples lost/duplicated");
    let expect = reference_counts(&intervals);
    let got = observed_counts(report, preserves);
    assert_eq!(got, expect, "{label}: word counts diverged");
    assert!(
        report.protocol_errors.is_empty(),
        "{label}: protocol errors: {:?}",
        report.protocol_errors
    );
}
