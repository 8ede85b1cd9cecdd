//! The paper's Stock experiment in miniature: a windowed self-join over a
//! bursty stock-tick stream (finding dense trading activity per stock),
//! with the Mixed rebalancer absorbing the bursts.
//!
//! ```text
//! cargo run --release --example stock_selfjoin
//! ```

use streambal::baselines::{storm, CoreBalancer, Partitioner};
use streambal::core::{BalanceParams, Key, RebalanceStrategy};
use streambal::runtime::{Engine, EngineConfig, Tuple, WindowedSelfJoinOp};
use streambal::workloads::StockWorkload;

fn intervals(seed: u64) -> Vec<Vec<Key>> {
    // 1,036 stock IDs (the paper's domain), heavy bursts.
    let mut w = StockWorkload::new(1_036, 15_000, 10, 25, seed);
    (0..6)
        .map(|i| {
            if i > 0 {
                w.advance();
            }
            w.tuples()
        })
        .collect()
}

fn run(name: &str, partitioner: Box<dyn Partitioner>, feed: Vec<Vec<Key>>) {
    let config = EngineConfig {
        n_workers: 4,
        max_workers: 4,
        spin_work: 400,
        window: 3, // self-join window: 3 intervals of ticks
        ..EngineConfig::default()
    };
    let report = Engine::run(
        config,
        partitioner,
        |_| Box::new(WindowedSelfJoinOp::new()),
        move |iv| {
            feed.get(iv as usize).map(|ks| {
                ks.iter()
                    .enumerate()
                    .map(|(i, &k)| Tuple::tagged(k, 0, [i as u64, 0]))
                    .collect()
            })
        },
        None,
    );
    println!(
        "{name:<8} throughput {:>8.0} t/s   mean latency {:>8.0} µs   rebalances {}   migrated {} bytes",
        report.mean_throughput,
        report.latency_us.mean(),
        report.rebalances,
        report.migrated_bytes,
    );
    // Interval timeline: watch throughput dip and recover around bursts.
    let timeline: Vec<String> = report
        .interval_throughput
        .points()
        .iter()
        .map(|&(iv, v)| format!("iv{iv:.0}:{:.0}k", v / 1e3))
        .collect();
    println!("{:<8} timeline: {}", "", timeline.join("  "));
}

fn main() {
    println!("Stock windowed self-join, 4 workers, 6 bursty intervals\n");
    run("Storm", Box::new(storm(4)), intervals(3));
    run(
        "Mixed",
        Box::new(CoreBalancer::new(
            4,
            3,
            RebalanceStrategy::Mixed,
            BalanceParams {
                theta_max: 0.1,
                ..BalanceParams::default()
            },
        )),
        intervals(3),
    );
    println!("\nExpected shape (paper Fig. 14b): the join is stateful, so only");
    println!("key-preserving strategies apply (no PKG); Mixed migrates burst");
    println!("keys' window state and keeps the pipeline near its capacity.");
}
