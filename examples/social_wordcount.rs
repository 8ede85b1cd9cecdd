//! The paper's Social experiment in miniature: a word-count topology over
//! a drifting topic-word stream, comparing plain hashing ("Storm") with
//! the Mixed rebalancer on the real threaded engine.
//!
//! ```text
//! cargo run --release --example social_wordcount
//! ```

use streambal::baselines::{storm, CoreBalancer, Partitioner};
use streambal::core::{BalanceParams, Key, RebalanceStrategy};
use streambal::runtime::{Engine, EngineConfig, Tuple, WordCountOp};
use streambal::workloads::SocialWorkload;

fn intervals(seed: u64) -> Vec<Vec<Key>> {
    // 10k-word vocabulary, 20k tuples per interval, gentle drift.
    let mut w = SocialWorkload::new(10_000, 20_000, 0.03, seed);
    (0..5)
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
        window: 5,
        ..EngineConfig::default()
    };
    let report = Engine::run(
        config,
        partitioner,
        |_| Box::new(WordCountOp::new()),
        move |iv| {
            feed.get(iv as usize)
                .map(|ks| ks.iter().map(|&k| Tuple::keyed(k)).collect())
        },
        None,
    );
    println!(
        "{name:<8} throughput {:>8.0} t/s   p99 latency {:>7} µs   rebalances {}   migrated {} keys / {} bytes",
        report.mean_throughput,
        report.latency_us.quantile(0.99),
        report.rebalances,
        report.migrated_keys,
        report.migrated_bytes,
    );
    println!(
        "{:<8} per-worker tuples: {:?}",
        "", report.per_worker_processed
    );
}

fn main() {
    println!("Social word count, 4 workers, 5 intervals, ~100k tuples\n");
    run("Storm", Box::new(storm(4)), intervals(7));
    run(
        "Mixed",
        Box::new(CoreBalancer::new(
            4,
            5,
            RebalanceStrategy::Mixed,
            BalanceParams {
                theta_max: 0.08,
                ..BalanceParams::default()
            },
        )),
        intervals(7),
    );
    println!("\nExpected shape (paper Fig. 14a): Mixed spreads the hot words and");
    println!("beats static hashing; its per-worker tuple counts are more even.");
}
